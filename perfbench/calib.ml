(* Host-speed probe: a fixed amount of allocation-heavy and of
   compute-bound work that uses only the standard library, so its time
   tracks the speed of the host (a shared host drifts by a fifth over
   minutes) and not the program under test.  Runs interleave probes with
   their operations, from the second pass on so that the first pass's
   peak heap is the program's own; run.py scales the run's times by the
   median probe. *)

module IM = Map.Make (Int)

(* Allocation- and pointer-heavy work, like the compiler's. *)
let memory () =
  let m = ref IM.empty and h = Hashtbl.create 4096 and acc = ref 0 in
  let live = Array.make 64 [] in
  for i = 1 to 60_000 do
    let k = i * 7919 land 0x7FFF in
    m := IM.add k i !m;
    Hashtbl.replace h k (i, k);
    let slot = i land 63 in
    live.(slot) <- (if i land 2047 = 0 then [] else (i, k) :: live.(slot));
    match IM.find_opt (k lxor 5) !m with Some v -> acc := !acc + v | None -> ()
  done;
  let l = List.sort compare (List.init 30_000 (fun i -> i * 104729 land 0xFFFFF)) in
  ignore (Sys.opaque_identity (!acc + List.length l + Hashtbl.length h))

(* Work that lives in the caches. *)
let compute () =
  let x = ref 0 and f = ref 1.0 in
  for i = 1 to 25_000_000 do
    x := (!x * 31) + i land 0xFFFFFFF;
    if i land 15 = 0 then f := (!f *. 1.0000001) +. 1e-9
  done;
  ignore (Sys.opaque_identity (!x + int_of_float !f))

let durations = ref [] (* newest first *)
let last = ref 0.

(* Each probe starts from a collected heap, so that it does not pay for
   the garbage of the operations before it. *)
let run () =
  Gc.full_major ();
  let t = Unix.gettimeofday () in
  memory ();
  compute ();
  last := Unix.gettimeofday ();
  durations := (!last -. t) :: !durations

(* Probe when at least [every] seconds have passed since the last one. *)
let maybe ~every = if Unix.gettimeofday () -. !last >= every then run ()

let to_json () = Minijson.list (List.rev_map Minijson.float !durations)

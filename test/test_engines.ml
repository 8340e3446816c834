(** Execution-engine tests: golden results of the reference interpreter
    and the cycle simulator, and every dynamic check the two engines
    make, pinned with its exact message.

    The golden values were recorded from the list-walking engines the
    decoded ones replaced, so any change in what the engines compute —
    counts, list orders, fault-injection order — shows up here. *)

open Vliw_ir
module I = Vliw_interp.Interp
module P = Vliw_interp.Profile
module Sim = Vliw_sched.Vliw_sim
module Attrib = Vliw_sched.Attrib
module Methods = Partition.Methods
module Pipeline = Gdp_core.Pipeline

(* ------------------------------------------------------------------ *)
(* Canonical renderings                                                *)

let value_str = function
  | I.VInt i -> string_of_int i
  | I.VFloat f -> Printf.sprintf "f%Lx" (Int64.bits_of_float f)

let values_str vs = String.concat "," (List.map value_str vs)
let digest s = Digest.to_hex (Digest.string s)

let obj_counts_str l =
  String.concat ","
    (List.map (fun (o, n) -> Printf.sprintf "%s=%d" (Data.obj_to_string o) n) l)

(* Everything an interpreter run reports: outputs, return value, every
   block and op count, every op's per-object accesses in list order,
   the heap sizes and the per-object totals. *)
let interp_render prog (r : I.result) =
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "outputs %s" (values_str r.I.outputs);
  line "return %s"
    (match r.I.return_value with None -> "-" | Some v -> value_str v);
  List.iter
    (fun f ->
      List.iter
        (fun bl ->
          line "block %s/%s %d" (Func.name f) (Block.label bl)
            (P.block_count r.I.profile ~func:(Func.name f)
               ~label:(Block.label bl)))
        (Func.blocks f))
    (Prog.funcs prog);
  Prog.iter_ops
    (fun op ->
      let id = Op.id op in
      line "op %d %d [%s]" id
        (P.op_count r.I.profile ~op_id:id)
        (obj_counts_str (P.accesses_of r.I.profile ~op_id:id)))
    prog;
  line "heap %s"
    (String.concat ","
       (List.map
          (fun (s, n) -> Printf.sprintf "%d=%d" s n)
          (P.heap_sizes r.I.profile)));
  line "totals %s" (obj_counts_str (P.object_access_totals r.I.profile));
  Buffer.contents b

let interp_facts name =
  let p = Pipeline.prepare_default (Benchsuite.Suite.find name) in
  let r =
    I.run p.Pipeline.prog ~input:p.Pipeline.bench.Benchsuite.Bench_intf.input
  in
  (r.I.steps, digest (interp_render p.Pipeline.prog r))

let totals_render (t : Attrib.totals) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf
    "cycles %d cats %s moves %d links %s objmoves %s unattr %d access %s"
    t.Attrib.t_cycles (ints t.Attrib.t_categories) t.Attrib.t_moves
    (String.concat ","
       (List.map
          (fun ((s, d), n) -> Printf.sprintf "%d>%d=%d" s d n)
          t.Attrib.t_link_moves))
    (obj_counts_str t.Attrib.t_obj_moves)
    t.Attrib.t_unattributed_moves
    (String.concat ","
       (List.map
          (fun (o, a) ->
            Printf.sprintf "%s=%d/%d" (Data.obj_to_string o) a.Attrib.acc_local
              a.Attrib.acc_remote)
          t.Attrib.t_obj_access))

let machine_of name =
  match Machine_spec.preset name with
  | Ok spec -> Machine_spec.resolve spec
  | Error e -> failwith e

let sim_facts name machine_name method_ =
  let p = Pipeline.prepare_default (Benchsuite.Suite.find name) in
  let machine = machine_of machine_name in
  let ctx = Pipeline.context ~machine p in
  let e = Pipeline.evaluate ctx method_ in
  let s =
    Sim.run ~account:true e.Pipeline.outcome.Methods.clustered ~machine
      ~objects_of:(Methods.objects_of ctx)
      ~input:p.Pipeline.bench.Benchsuite.Bench_intf.input ()
  in
  let account =
    match s.Sim.account with Some t -> totals_render t | None -> "-"
  in
  ( s.Sim.cycles,
    s.Sim.dynamic_moves,
    digest (values_str s.Sim.outputs ^ "\n" ^ account) )

(* ------------------------------------------------------------------ *)
(* Golden values                                                       *)

(* (benchmark, steps, digest of [interp_render]) *)
let interp_golden =
  [
    ("fir", 160238, "79bb648667d81eaab9835fa1c20ecc12");
    ("epic", 115451, "a98dcd662b27b4d8ee949daa4c719b1f");
    ("mpeg2dec", 78359, "478e535d05ad8ac7994d49629de9d6a5");
  ]

(* (benchmark, machine, method, cycles, moves, digest of the outputs
   and the attribution totals) *)
let sim_golden =
  [
    ("fir", "paper", "gdp", 54628, 34200, "c4acb9172846361a61f20715d45a564d");
    ("fir", "paper", "profile-max", 54628, 34200, "c4acb9172846361a61f20715d45a564d");
    ("fir", "paper", "naive", 72028, 30601, "5f4de6ef03ce60e67c3813285a85485c");
    ("fir", "paper", "unified", 66627, 18004, "8b563dc6864ee7d5e6d70cdf95b29aee");
    ("fir", "mesh16", "gdp", 97827, 49201, "e1124f3882240efa186d9e802c6208b5");
    ("fir", "mesh16", "profile-max", 53428, 44401, "9266d4c18cabc2e67cf1ebb054206fb1");
    ("fir", "mesh16", "naive", 71427, 55800, "c2ab7034de53ce0cc6d6e327edba61a8");
    ("fir", "mesh16", "unified", 59427, 39006, "222877e30ed4292b494750e9f44f5a14");
    ("epic", "paper", "gdp", 49817, 18066, "393c2d54cfaf1d7cfbd69852a4067b9e");
    ("epic", "paper", "profile-max", 48196, 9602, "8252d2b76edcbe0601db67cd626dc8dd");
    ("epic", "paper", "naive", 48708, 12929, "7c058e90643af3b91236a58a70a9e4d8");
    ("epic", "paper", "unified", 45256, 8963, "d0b9c78ccaa5ead03735b695e055518f");
    ("epic", "mesh16", "gdp", 82098, 35219, "98f17c318ead6c556e84ba04ba51ac78");
    ("epic", "mesh16", "profile-max", 75520, 37772, "ce6138a64962b86994dd5a6468d07c41");
    ("epic", "mesh16", "naive", 49988, 23425, "ae25f0a6f45d6df23aa7bbbab316139a");
    ("epic", "mesh16", "unified", 46152, 17667, "f4bca0b98c6831e5e4272f261a87416f");
    ("mpeg2dec", "paper", "gdp", 32052, 11899, "a458928f7ca0497d32e00512603e0a89");
    ("mpeg2dec", "paper", "profile-max", 32672, 8665, "5d691dbc8855edfa2f1832e2d4615fe8");
    ("mpeg2dec", "paper", "naive", 33640, 13536, "5a68742d41b1cb6f7e35b47f001245ed");
    ("mpeg2dec", "paper", "unified", 29946, 9217, "7264525412e1d77b76d3837b778e2f8a");
    ("mpeg2dec", "mesh16", "gdp", 79630, 24379, "42af304c6ddae1fb56438868e7c20c18");
    ("mpeg2dec", "mesh16", "profile-max", 49035, 23760, "0d5652a1347ca853f95ebca896ac691c");
    ("mpeg2dec", "mesh16", "naive", 33543, 20880, "044431aa60487a1b69dcdf0a5d6527bb");
    ("mpeg2dec", "mesh16", "unified", 28554, 13825, "e16786f5e9fb30deb6a933f013f63035");
  ]

let test_interp_golden () =
  List.iter
    (fun (name, steps, d) ->
      let steps', d' = interp_facts name in
      Alcotest.(check int) (name ^ " steps") steps steps';
      Alcotest.(check string) (name ^ " profile digest") d d')
    interp_golden

(* No suite program has a memory op that reaches two objects, so this
   one pins the order of [accesses_of]: the loads in [get] and the
   stores in [put] each reach four objects. *)
let multi_object_src =
  {|
int a[4] = { 1, 2, 3, 4 };
int b[4] = { 5, 6, 7, 8 };
int get(int *p, int i) { return p[i]; }
void put(int *p, int i, int v) { p[i] = v; }
void main() {
  int *h = malloc(4);
  int *k = malloc(4);
  for (int i = 0; i < 4; i = i + 1) { put(h, i, in(i)); put(k, i, i * 3); }
  put(b, 2, 9);
  put(a, 0, 7);
  out(get(k, 0) + get(b, 1) + get(h, 2) + get(a, 3) + get(b, 0) + get(k, 1));
}
|}

let multi_object_golden =
  [ "@b=2,heap#0=1,heap#1=2,@a=1"; "@b=1,heap#0=4,heap#1=4,@a=1" ]

let test_access_order () =
  let prog = Minic.compile multi_object_src in
  let r = I.run prog ~input:[| 1; 2; 3; 4 |] in
  let lists =
    Prog.fold_ops
      (fun acc op ->
        match P.accesses_of r.I.profile ~op_id:(Op.id op) with
        | [] -> acc
        | l -> obj_counts_str l :: acc)
      [] prog
  in
  Alcotest.(check (list string)) "accesses_of" multi_object_golden
    (List.rev lists)

let test_sim_golden () =
  List.iter
    (fun (name, machine, m, cycles, moves, d) ->
      let what = Printf.sprintf "%s/%s/%s" name machine m in
      let method_ =
        List.find (fun x -> String.equal (Methods.name x) m) Methods.all
      in
      let cycles', moves', d' = sim_facts name machine method_ in
      Alcotest.(check int) (what ^ " cycles") cycles cycles';
      Alcotest.(check int) (what ^ " moves") moves moves';
      Alcotest.(check string) (what ^ " outputs+account digest") d d')
    sim_golden

(* ------------------------------------------------------------------ *)
(* Dynamic checks, each with its exact message                        *)

let expect_interp_error ?(input = [||]) prog msg =
  match I.run prog ~input with
  | _ -> Alcotest.failf "expected the interpreter to fail with %S" msg
  | exception I.Runtime_error m -> Alcotest.(check string) "message" msg m

(* [a] is the only global, so it sits at the global base 0x1000. *)
let misaligned_prog () =
  let b = Builder.create () in
  Builder.add_global b (Data.global "a" 2);
  let fb, _ = Builder.start_func b ~name:"main" ~nparams:0 in
  Builder.start_block fb (Builder.fresh_label fb);
  let base = Builder.addr fb "a" in
  let v = Builder.load fb ~base:(Op.Reg base) ~offset:(Op.Imm 3) in
  Builder.output fb (Op.Reg v);
  Builder.terminate fb (Op.Ret None);
  ignore (Builder.finish_func fb);
  Builder.finish b

let sum_loop =
  "void main() { int s = 0; for (int i = 0; i < 9; i = i + 1) { s = s + i; } \
   out(s); }"

let test_interp_checks () =
  expect_interp_error (misaligned_prog ())
    "misaligned access at address 0x1003";
  let c = Helpers.compile in
  expect_interp_error
    (c "int a[2]; void main() { out(a[in(0)]); }")
    ~input:[| 40 |] "wild memory access at address 0x1140";
  expect_interp_error
    (c "int z; void main() { out(3 / z); }")
    "division by zero";
  expect_interp_error
    (c "int z; void main() { out(3 % z); }")
    "remainder by zero";
  expect_interp_error
    (c "void main() { out(in(3)); }")
    ~input:[| 1 |] "input index 3 out of bounds (input has 1 words)";
  let loop = c "void main() { while (1) { int x = 0; } }" in
  (match I.run ~fuel:1000 loop ~input:[||] with
  | _ -> Alcotest.fail "expected fuel exhaustion"
  | exception I.Runtime_error m ->
      Alcotest.(check string) "fuel" "out of fuel" m);
  (* fuel runs out at the same step: a run with exactly the steps a
     program needs succeeds, one fewer fails *)
  let p = c sum_loop in
  let steps = (I.run p ~input:[||]).I.steps in
  ignore (I.run ~fuel:steps p ~input:[||]);
  match I.run ~fuel:(steps - 1) p ~input:[||] with
  | _ -> Alcotest.fail "expected fuel exhaustion one step short"
  | exception I.Runtime_error m ->
      Alcotest.(check string) "fuel" "out of fuel" m

(* Profile on [profile_input] so the pipeline accepts the program, then
   simulate the GDP clustering on [input]. *)
let sim_error ?(fuel = 5_000_000) ~profile_input ~input src =
  let prog = Helpers.compile src in
  let _, ctx = Helpers.context ~input:profile_input prog in
  let o = Methods.run Methods.Gdp ctx in
  match
    Sim.run ~fuel o.Methods.clustered ~machine:ctx.Methods.machine
      ~objects_of:(Methods.objects_of ctx) ~input ()
  with
  | _ -> Alcotest.fail "expected the simulator to fail"
  | exception Sim.Sim_error m -> m

let test_sim_checks () =
  let check what expected got = Alcotest.(check string) what expected got in
  check "wild load" "wild load at 0x1140"
    (sim_error ~profile_input:[| 1 |] ~input:[| 40 |]
       "int a[2]; void main() { out(a[in(0)]); }");
  check "wild store" "wild store at 0x1140"
    (sim_error ~profile_input:[| 1 |] ~input:[| 40 |]
       "int a[2]; void main() { a[in(0)] = 7; out(a[0]); }");
  check "input bounds" "input index 1 out of bounds"
    (sim_error ~profile_input:[| 1; 2 |] ~input:[| 1 |]
       "void main() { out(in(0) + in(1)); }");
  check "runtime error" "runtime error: division by zero"
    (sim_error ~profile_input:[| 1 |] ~input:[| 0 |]
       "void main() { out(7 / in(0)); }");
  check "fuel" "out of fuel"
    (sim_error ~fuel:5 ~profile_input:[||] ~input:[||] sum_loop)

(* A move that arrives later than the machine promises is read stale.
   The message names the first stale read; its cycles depend on the
   random extra latency, so it also pins the order of [Fault.fire]
   and [Fault.rand] calls. *)
let latency_golden =
  [
    ( "gdp",
      "latency violation: main/bb5 reads r31 at cycle 6 but a write issued \
       at 1 completes at 8 (3 injected)" );
    ( "profile-max",
      "latency violation: main/bb5 reads r31 at cycle 6 but a write issued \
       at 1 completes at 8 (4 injected)" );
    ( "naive",
      "latency violation: main/bb5 reads r32 at cycle 6 but a write issued \
       at 1 completes at 8 (5 injected)" );
    ( "unified",
      "latency violation: main/bb5 reads r35 at cycle 7 but a write issued \
       at 2 completes at 9 (6 injected)" );
  ]

let test_latency_violation () =
  let bench : Benchsuite.Bench_intf.t =
    {
      name = "dotprod";
      description = "";
      source = Dotprod_src.source;
      input = [| 1; 2; 3; 4; 5; 6; 7; 8 |];
      exhaustive_ok = false;
    }
  in
  let ctx = Pipeline.context (Pipeline.prepare bench) in
  let spec = Result.get_ok (Fault.parse_spec "sim.move-latency@*") in
  let got =
    List.map
      (fun (m, _) ->
        let method_ =
          List.find (fun x -> String.equal (Methods.name x) m) Methods.all
        in
        let o = Methods.run method_ ctx in
        Fault.arm spec;
        Fun.protect ~finally:Fault.disarm (fun () ->
            match
              Sim.run o.Methods.clustered ~machine:ctx.Methods.machine
                ~objects_of:(Methods.objects_of ctx) ~input:bench.input ()
            with
            | _ -> (m, "no violation")
            | exception Sim.Sim_error msg ->
                ( m,
                  Printf.sprintf "%s (%d injected)" msg
                    (Fault.counts ()).Fault.injected )))
      latency_golden
  in
  Alcotest.(check (list (pair string string))) "messages" latency_golden got

(* ------------------------------------------------------------------ *)
(* Memory size                                                         *)

(* Outputs of the interpreter and of the simulated GDP clustering. *)
let both_outputs ~input src =
  let prog = Helpers.compile src in
  let reference, ctx = Helpers.context ~input prog in
  let o = Methods.run Methods.Gdp ctx in
  let s =
    Sim.run o.Methods.clustered ~machine:ctx.Methods.machine
      ~objects_of:(Methods.objects_of ctx) ~input ()
  in
  (values_str reference.I.outputs, values_str s.Sim.outputs)

(* 2^55 words is more than any OCaml array holds, so storage that grows
   with the size requested fails at once instead of exhausting memory.
   The loop then keeps 20,000 allocations of 1,000 words alive and
   touches one word of each. *)
let large_alloc_src =
  {|
void main() {
  int *p = malloc(36028797018963968);
  p[36028797018963967] = in(0);
  p[3] = 5;
  out(p[36028797018963967] + p[3] + p[4]);
  int *q = p;
  for (int i = 0; i < 20000; i = i + 1) { q = malloc(1000); q[999] = i; }
  out(q[999]);
}
|}

let test_large_allocations () =
  let prog = Helpers.compile large_alloc_src in
  let before = (Gc.quick_stat ()).Gc.major_words in
  let r = I.run prog ~input:[| 7 |] in
  let major = (Gc.quick_stat ()).Gc.major_words -. before in
  Alcotest.(check string) "interpreter outputs" "12,19999"
    (values_str r.I.outputs);
  (* the 20M words the loop requests, were they stored, would be
     allocated in the major heap *)
  if major > 4e6 then
    Alcotest.failf "the run took %.0f major-heap words" major;
  let interp, sim = both_outputs ~input:[| 7 |] large_alloc_src in
  Alcotest.(check string) "interpreter outputs" "12,19999" interp;
  Alcotest.(check string) "simulator outputs" "12,19999" sim

(* [a] spans 16.8 MB from the global base 0x1000, past the heap base
   0x1000000, so the first allocation lies inside it.  There the heap
   object holds the address, and both names reach the same word:
   [a[2096640]] is [p[0]], and the profile charges its load to the
   heap object. *)
let test_globals_past_heap_base () =
  let src =
    {|
int a[2100000];
void main() {
  a[2099999] = in(0);
  int *p = malloc(4);
  p[0] = 9;
  out(a[2099999]);
  out(p[0]);
  out(a[2096640]);
}
|}
  in
  let r = I.run (Helpers.compile src) ~input:[| 7 |] in
  Alcotest.(check string) "object totals" "@a=2,heap#0=3"
    (obj_counts_str (P.object_access_totals r.I.profile));
  let interp, sim = both_outputs ~input:[| 7 |] src in
  Alcotest.(check string) "interpreter outputs" "7,9,9" interp;
  Alcotest.(check string) "simulator outputs" "7,9,9" sim

(* ------------------------------------------------------------------ *)
(* Work counters                                                       *)

(* One run adds its steps and executed blocks once.  The simulator
   walks the same blocks as an interpretation of the clustered program,
   and its fuel, one unit per block, runs out on the same block as
   before: it needs one unit more than it executes blocks. *)
let test_work_counters () =
  let p = Pipeline.prepare_default (Benchsuite.Suite.find "fir") in
  let prog = p.Pipeline.prog
  and input = p.Pipeline.bench.Benchsuite.Bench_intf.input in
  let blocks prog (r : I.result) =
    List.fold_left
      (fun acc f ->
        List.fold_left
          (fun acc b ->
            acc
            + P.block_count r.I.profile ~func:(Func.name f)
                ~label:(Block.label b))
          acc (Func.blocks f))
      0 (Prog.funcs prog)
  in
  let (r, steps, nblocks), _ =
    Telemetry.capture (fun () ->
        let r = I.run prog ~input in
        ( r,
          Telemetry.counter_value "interp.steps",
          Telemetry.counter_value "interp.blocks" ))
  in
  Alcotest.(check int) "interp.steps" r.I.steps steps;
  Alcotest.(check int) "interp.blocks" (blocks prog r) nblocks;
  let ctx = Pipeline.context p in
  let clustered =
    (Pipeline.evaluate ctx Methods.Gdp).Pipeline.outcome.Methods.clustered
  in
  let sim ?fuel () =
    Sim.run ?fuel clustered ~machine:ctx.Methods.machine
      ~objects_of:(Methods.objects_of ctx) ~input ()
  in
  let sim_blocks, _ =
    Telemetry.capture (fun () ->
        ignore (sim ());
        Telemetry.counter_value "sim.blocks_executed")
  in
  let cprog = clustered.Vliw_sched.Move_insert.cprog in
  Alcotest.(check int) "sim.blocks_executed"
    (blocks cprog (I.run cprog ~input))
    sim_blocks;
  ignore (sim ~fuel:(sim_blocks + 1) ());
  match sim ~fuel:sim_blocks () with
  | _ -> Alcotest.fail "expected the simulator to run out of fuel"
  | exception Sim.Sim_error m -> Alcotest.(check string) "fuel" "out of fuel" m

let suite =
  [
    Alcotest.test_case "work counters" `Quick test_work_counters;
    Alcotest.test_case "interpreter checks fire" `Quick test_interp_checks;
    Alcotest.test_case "simulator checks fire" `Quick test_sim_checks;
    Alcotest.test_case "latency checker under injected move delay" `Quick
      test_latency_violation;
    Alcotest.test_case "interpreter golden results" `Quick test_interp_golden;
    Alcotest.test_case "accesses_of lists objects in a fixed order" `Quick
      test_access_order;
    Alcotest.test_case "large allocations cost only the memory touched" `Quick
      test_large_allocations;
    Alcotest.test_case "globals past the heap base" `Quick
      test_globals_past_heap_base;
    Alcotest.test_case "simulator golden results" `Slow test_sim_golden;
  ]

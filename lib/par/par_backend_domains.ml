(* Domains backend (OCaml 5): a pool of persistent worker domains fed
   through a generation-counted job slot.

   Protocol: the owner publishes one job at a time under [sh.m] (bumping
   [sh.gen] and broadcasting [sh.work]), then joins the computation
   itself.  Workers wake on the generation change, pull indices from the
   job's atomic counter until it runs dry, and check out by decrementing
   [j_pending]; the owner waits on [sh.done_] until every worker has
   checked out, so a job is fully quiesced before the next one (or pool
   teardown) can start.  Dynamic index-grabbing is fine for determinism
   because results land by index, never by completion order. *)

let backend = "domains"
let is_main_domain () = Domain.is_main_domain ()

type job = {
  j_n : int;
  j_body : int -> unit;
  j_next : int Atomic.t;
  mutable j_pending : int;  (** workers that have not finished this job *)
  mutable j_err : (int * Printexc.raw_backtrace * exn) option;
      (** lowest-index failure; every index still runs *)
}

type shared = {
  m : Mutex.t;
  work : Condition.t;  (** new job published, or shutdown *)
  done_ : Condition.t;  (** a worker checked out of the current job *)
  mutable gen : int;
  mutable current : job option;
  mutable stop : bool;
}

type pool = {
  sh : shared;
  workers : unit Domain.t array;
  owner : Domain.id;
  mutable busy : bool;  (** owner-domain flag: a job is in flight *)
}

let size p = Array.length p.workers + 1

let run_share sh (job : job) =
  let rec grab () =
    let i = Atomic.fetch_and_add job.j_next 1 in
    if i < job.j_n then begin
      (try job.j_body i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock sh.m;
         (match job.j_err with
         | Some (i0, _, _) when i0 <= i -> ()
         | _ -> job.j_err <- Some (i, bt, e));
         Mutex.unlock sh.m);
      grab ()
    end
  in
  grab ()

let worker_loop sh =
  let rec loop last_gen =
    Mutex.lock sh.m;
    while (not sh.stop) && sh.gen = last_gen do
      Condition.wait sh.work sh.m
    done;
    if sh.stop then Mutex.unlock sh.m
    else begin
      let gen = sh.gen in
      let job = match sh.current with Some j -> j | None -> assert false in
      Mutex.unlock sh.m;
      run_share sh job;
      Mutex.lock sh.m;
      job.j_pending <- job.j_pending - 1;
      if job.j_pending = 0 then Condition.broadcast sh.done_;
      Mutex.unlock sh.m;
      loop gen
    end
  in
  loop 0

let fresh_shared () =
  {
    m = Mutex.create ();
    work = Condition.create ();
    done_ = Condition.create ();
    gen = 0;
    current = None;
    stop = false;
  }

let with_pool ~domains f =
  let nworkers = max 1 domains - 1 in
  if nworkers = 0 then
    f
      {
        sh = fresh_shared ();
        workers = [||];
        owner = Domain.self ();
        busy = false;
      }
  else begin
    let sh = fresh_shared () in
    let workers =
      Array.init nworkers (fun _ -> Domain.spawn (fun () -> worker_loop sh))
    in
    let pool = { sh; workers; owner = Domain.self (); busy = false } in
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock sh.m;
        sh.stop <- true;
        Condition.broadcast sh.work;
        Mutex.unlock sh.m;
        Array.iter Domain.join workers)
      (fun () -> f pool)
  end

let inline_for n body =
  for i = 0 to n - 1 do
    body i
  done

let parallel_for pool ~n body =
  if n <= 0 then ()
  else if
    Array.length pool.workers = 0
    || pool.busy
    || Domain.self () <> pool.owner
  then inline_for n body
  else begin
    let job =
      {
        j_n = n;
        j_body = body;
        j_next = Atomic.make 0;
        j_pending = Array.length pool.workers;
        j_err = None;
      }
    in
    let sh = pool.sh in
    pool.busy <- true;
    Fun.protect
      ~finally:(fun () -> pool.busy <- false)
      (fun () ->
        Mutex.lock sh.m;
        sh.current <- Some job;
        sh.gen <- sh.gen + 1;
        Condition.broadcast sh.work;
        Mutex.unlock sh.m;
        run_share sh job;
        Mutex.lock sh.m;
        while job.j_pending > 0 do
          Condition.wait sh.done_ sh.m
        done;
        sh.current <- None;
        Mutex.unlock sh.m);
    match job.j_err with
    | Some (_, bt, e) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let map pool ~n f =
  if n <= 0 then [||]
  else begin
    let results = Array.make n None in
    parallel_for pool ~n (fun i -> results.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) results
  end

module Lock = struct
  type t = Mutex.t

  let create = Mutex.create

  let with_lock m f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f
end

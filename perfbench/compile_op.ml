(* One verified compile from source, two ways.

   [plain] is what [gdpc partition --verify] does: [Pipeline.prepare]
   then [Pipeline.run] in [Checked {verify = true}] mode.  [traced] makes
   the same calls one layer at a time, through each layer's public
   functions, with a span around each call.  Where a method's internals
   are not public, the span is the enclosing public call: GDP's second
   pass is [Methods.clustered_with_homes], and Profile Max and Naive are
   [Methods.run].  Unified is [Rhop.partition] plus [Move_insert.apply]
   called directly, which is the whole of [Methods.run_unified].
   With [~verify:false] both stop after pricing, as a [gdpcd] job
   without [verify] does. *)

module P = Gdp_core.Pipeline
module M = Partition.Methods
module Bi = Benchsuite.Bench_intf
module Interp = Vliw_interp.Interp

(* What a compile produced, in the terms the traced run must reproduce. *)
type result = {
  cycles : int;
  moves : int;
  static_moves : int;
  homes : string;  (** object homes, canonical order *)
}

let homes_key homes =
  homes
  |> List.map (fun (o, c) ->
         Printf.sprintf "%s@%d" (Vliw_ir.Data.obj_to_string o) c)
  |> List.sort String.compare |> String.concat ","

let result_line r =
  Printf.sprintf "cycles=%d moves=%d static=%d homes=%s" r.cycles r.moves
    r.static_moves r.homes

let result_of (report : Vliw_sched.Perf.report) (o : M.outcome) =
  {
    cycles = report.Vliw_sched.Perf.total_cycles;
    moves = report.Vliw_sched.Perf.dynamic_moves;
    static_moves = report.Vliw_sched.Perf.static_moves;
    homes = homes_key o.M.obj_home;
  }

let settings spec method_ = { (P.Settings.default method_) with P.Settings.machine = spec }

let plain ?(verify = true) ~spec (bench : Bi.t) method_ :
    (result, string) Stdlib.result =
  match
    let prepared = P.prepare bench in
    P.run ~prepared ~mode:(P.Checked { verify }) (settings spec method_)
  with
  | Ok (P.Evaluated e) -> Ok (result_of e.P.report e.P.outcome)
  | Ok (P.Degraded _) -> Error "Checked mode returned a degraded result"
  | Error m -> Error m
  | exception e -> Error (Printexc.to_string e)

(* Exact work counts of the traced run, summed over its operations. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 16

let count name v =
  Hashtbl.replace counts name
    (Option.value ~default:0. (Hashtbl.find_opt counts name) +. float_of_int v)

let same_outputs a b =
  List.length a = List.length b && List.for_all2 Interp.equal_value a b

let traced ?(verify = true) ~op ~machine (bench : Bi.t) method_ :
    (result, string) Stdlib.result =
  let input = bench.Bi.input in
  let decomposed () =
    Trace.with_span ~op ~parent:0 "compile" @@ fun root ->
    let sp name f = Trace.with_span ~op ~parent:root name (fun _ -> f ()) in
    let prog = sp "minic" (fun () -> Minic.compile ~unroll:true bench.Bi.source) in
    let prog =
      sp "opt" (fun () ->
          let p = Vliw_opt.Promote.run prog in
          let p = Vliw_opt.Dce.run (Vliw_opt.Simplify.run p) in
          Vliw_opt.Dce.run (Vliw_opt.Ifconvert.run p))
    in
    count "opt.ir_ops" (Vliw_ir.Prog.op_count prog);
    let reference = sp "interp" (fun () -> Interp.run prog ~input) in
    let profile = reference.Interp.profile in
    let pt, objtab =
      sp "analysis" (fun () ->
          let pt = Vliw_analysis.Points_to.compute prog in
          (pt, Vliw_interp.Profile.object_table prog profile))
    in
    let merge =
      sp "partition.merge" (fun () ->
          Partition.Merge.compute ~merge_low_slack:false ~machine prog objtab pt)
    in
    let dfg = sp "analysis" (fun () -> Vliw_analysis.Prog_dfg.compute prog) in
    count "analysis.dfg_edges" (Vliw_analysis.Prog_dfg.num_edges dfg);
    count "partition.merge_groups" (Partition.Merge.num_groups merge);
    let ctx = { M.prog; machine; profile; pt; objtab; merge; dfg } in
    let outcome =
      match method_ with
      | M.Gdp ->
          let r =
            sp "graphpart" (fun () ->
                Partition.Gdp.partition_objects ~machine ~prog ~merge ~dfg
                  ~profile ())
          in
          count "graphpart.edgecut" r.Partition.Gdp.edgecut;
          sp "partition.locked" (fun () ->
              M.clustered_with_homes ctx ~method_name:(M.name M.Gdp)
                ~rhop_runs:1 r.Partition.Gdp.obj_home)
      | M.Unified ->
          let assign =
            Vliw_sched.Assignment.create
              ~num_clusters:(Vliw_machine.num_clusters machine)
          in
          sp "rhop" (fun () ->
              Partition.Rhop.partition ~machine ~objects_of:(M.objects_of ctx)
                ~lock_of:(fun _ -> None)
                prog assign);
          let clustered =
            sp "sched.move_insert" (fun () ->
                Vliw_sched.Move_insert.apply prog assign)
          in
          count "sched.static_moves"
            (List.length (Vliw_sched.Move_insert.move_ids clustered));
          { M.method_name = M.name M.Unified; clustered; obj_home = []; rhop_runs = 1 }
      | m -> sp "partition.baseline" (fun () -> M.run m ctx)
    in
    let clustered = outcome.M.clustered in
    sp "sched.validate" (fun () ->
        Vliw_sched.Assignment.validate clustered.Vliw_sched.Move_insert.cassign
          clustered.Vliw_sched.Move_insert.cprog ~objects_of:(M.objects_of ctx));
    let report = sp "sched.schedule" (fun () -> M.evaluate ctx outcome) in
    let verdict =
      if not verify then Ok (result_of report outcome)
      else
        let expected = reference.Interp.outputs in
        let re =
          sp "verify.interp" (fun () ->
              Interp.run clustered.Vliw_sched.Move_insert.cprog ~input)
        in
        let sim =
          sp "verify.sim" (fun () ->
              Vliw_sched.Vliw_sim.run clustered ~machine
                ~objects_of:(M.objects_of ctx) ~input ())
        in
        count "verify.sim_cycles" sim.Vliw_sched.Vliw_sim.cycles;
        if not (same_outputs re.Interp.outputs expected) then
          Error "clustered interpretation outputs differ from the reference run"
        else if not (same_outputs sim.Vliw_sched.Vliw_sim.outputs expected) then
          Error "cycle simulation outputs differ from the reference run"
        else if
          sim.Vliw_sched.Vliw_sim.cycles <> report.Vliw_sched.Perf.total_cycles
        then Error "simulated cycles disagree with the static model"
        else if
          sim.Vliw_sched.Vliw_sim.dynamic_moves
          <> report.Vliw_sched.Perf.dynamic_moves
        then Error "simulated moves disagree with the static model"
        else Ok (result_of report outcome)
    in
    (verdict, ctx)
  in
  match decomposed () with
  | exception e -> Error (Printexc.to_string e)
  | verdict, ctx ->
      (* problem size, counted outside the compile span so it costs no
         traced time *)
      if method_ = M.Gdp then begin
        let p =
          Partition.Gdp.build_problem ~machine ~prog:ctx.M.prog
            ~merge:ctx.M.merge ~dfg:ctx.M.dfg ~profile:ctx.M.profile ()
        in
        count "graphpart.nodes" (Graphpart.Graph.num_nodes p.Partition.Gdp.graph);
        count "graphpart.edges" (Graphpart.Graph.num_edges p.Partition.Gdp.graph)
      end;
      verdict

(** Optimization pass tests: straightening, if-conversion, scalar
    promotion — unit behaviours plus semantic preservation. *)

open Vliw_ir

let diamond_src =
  {|
int g;
void main() {
  int x = in(0);
  if (x > 3) { g = x * 2; } else { g = x - 1; }
  if (x > 0) { out(g + 1); }
  out(g);
}
|}

let count_blocks prog =
  List.fold_left
    (fun acc f -> acc + List.length (Func.blocks f))
    0 (Prog.funcs prog)

let count_guarded prog =
  let n = ref 0 in
  Prog.iter_ops (fun op -> if Op.is_guarded op then incr n) prog;
  !n

let count_cbr prog =
  let n = ref 0 in
  Prog.iter_ops
    (fun op -> match Op.kind op with Op.Cbr _ -> incr n | _ -> ())
    prog;
  !n

let test_ifconvert_flattens_diamonds () =
  let prog = Helpers.compile ~unroll:false diamond_src in
  let conv = Vliw_opt.Ifconvert.run prog in
  Alcotest.(check bool) "fewer blocks" true
    (count_blocks conv < count_blocks prog);
  Alcotest.(check bool) "guards introduced" true (count_guarded conv > 0);
  Alcotest.(check int) "straight line" 0 (count_cbr conv)

let test_ifconvert_preserves_semantics () =
  let prog = Helpers.compile ~unroll:false diamond_src in
  let conv = Vliw_opt.Ifconvert.run prog in
  List.iter
    (fun x ->
      let input = [| x |] in
      Helpers.check_outputs "if-converted"
        (Vliw_interp.Interp.run prog ~input).outputs
        (Vliw_interp.Interp.run conv ~input).outputs)
    [ -5; 0; 1; 4; 100 ]

let test_ifconvert_keeps_loops () =
  let src =
    "void main() { int s = 0; for (int i = 0; i < in(0); i = i + 1) { s = s + i; } out(s); }"
  in
  let prog = Helpers.compile ~unroll:false src in
  let conv = Vliw_opt.Ifconvert.run prog in
  Alcotest.(check bool) "loop branch survives" true (count_cbr conv > 0);
  Helpers.check_outputs "loop semantics"
    (Vliw_interp.Interp.run prog ~input:[| 10 |]).outputs
    (Vliw_interp.Interp.run conv ~input:[| 10 |]).outputs

let test_ifconvert_skips_calls () =
  let src =
    {|
int f(int x) { return x + 1; }
void main() {
  int r = 0;
  if (in(0) > 0) { r = f(3); }
  out(r);
}
|}
  in
  let prog = Helpers.compile ~unroll:false src in
  let conv = Vliw_opt.Ifconvert.run prog in
  (* call-containing branches are not converted *)
  Alcotest.(check bool) "branch remains" true (count_cbr conv > 0);
  List.iter
    (fun x ->
      Helpers.check_outputs "semantics"
        (Vliw_interp.Interp.run prog ~input:[| x |]).outputs
        (Vliw_interp.Interp.run conv ~input:[| x |]).outputs)
    [ 0; 1 ]

let test_nested_if_conversion () =
  let src =
    {|
void main() {
  int x = in(0);
  int r = 0;
  if (x > 0) {
    if (x > 10) { r = 2; } else { r = 1; }
  } else {
    r = -1;
  }
  out(r);
}
|}
  in
  let prog = Helpers.compile ~unroll:false src in
  let conv = Vliw_opt.Ifconvert.run prog in
  Alcotest.(check int) "fully flattened" 0 (count_cbr conv);
  List.iter
    (fun x ->
      Helpers.check_outputs "nested"
        (Vliw_interp.Interp.run prog ~input:[| x |]).outputs
        (Vliw_interp.Interp.run conv ~input:[| x |]).outputs)
    [ -3; 0; 5; 11 ]

let test_straighten () =
  let prog = Helpers.compile ~unroll:false "void main() { out(1); out(2); }" in
  (* lowering of straight-line code may already be one block; straighten
     must at least be idempotent and preserve entry *)
  let s = Vliw_opt.Straighten.run prog in
  let s2 = Vliw_opt.Straighten.run s in
  Alcotest.(check int) "idempotent" (count_blocks s) (count_blocks s2);
  Helpers.check_outputs "semantics"
    (Vliw_interp.Interp.run prog ~input:[||]).outputs
    (Vliw_interp.Interp.run s ~input:[||]).outputs

let test_promote_scalars () =
  let src =
    {|
int acc;
void main() {
  for (int i = 0; i < 10; i = i + 1) { acc = acc + i; }
  out(acc);
}
|}
  in
  let prog = Helpers.compile ~unroll:false src in
  let promoted = Vliw_opt.Promote.run prog in
  (* the loop no longer loads/stores acc every iteration: memory op count
     drops to the entry load + exit store *)
  let count_mem p =
    let n = ref 0 in
    Prog.iter_ops (fun op -> if Op.is_mem op then incr n) p;
    !n
  in
  Alcotest.(check bool) "fewer memory ops" true
    (count_mem promoted < count_mem prog);
  Alcotest.(check int) "load + store remain" 2 (count_mem promoted);
  Helpers.check_outputs "semantics"
    (Vliw_interp.Interp.run prog ~input:[||]).outputs
    (Vliw_interp.Interp.run promoted ~input:[||]).outputs

let test_promote_skips_shared_globals () =
  let src =
    {|
int shared;
int bump(int d) { shared = shared + d; return shared; }
void main() {
  shared = 5;
  out(bump(3));
  out(shared);
}
|}
  in
  let prog = Helpers.compile ~unroll:false src in
  let promoted = Vliw_opt.Promote.run prog in
  (* shared is accessed from two functions: promotion must not touch it *)
  Helpers.check_outputs "semantics"
    (Vliw_interp.Interp.run prog ~input:[||]).outputs
    (Vliw_interp.Interp.run promoted ~input:[||]).outputs;
  let stores p =
    let n = ref 0 in
    Prog.iter_ops (fun op -> if Op.is_store op then incr n) p;
    !n
  in
  Alcotest.(check int) "stores unchanged" (stores prog) (stores promoted)

let test_promote_skips_escaping_address () =
  let src =
    {|
int cell;
void main() {
  int *p = &cell;
  p[0] = 9;
  out(cell);
}
|}
  in
  let prog = Helpers.compile ~unroll:false src in
  let promoted = Vliw_opt.Promote.run prog in
  Helpers.check_outputs "semantics"
    (Vliw_interp.Interp.run prog ~input:[||]).outputs
    (Vliw_interp.Interp.run promoted ~input:[||]).outputs

let test_constant_folding () =
  let prog =
    Helpers.compile ~unroll:false "void main() { out(2 + 3 * 4); out(10 / 0 + in(16)); }"
  in
  (* the first out's chain folds to a literal; division by a zero literal
     must NOT fold away (it still traps) *)
  let simplified = Vliw_opt.Simplify.run prog in
  let divs p =
    let n = ref 0 in
    Prog.iter_ops
      (fun op ->
        match Op.kind op with
        | Op.Ibin (Op.Div, _, _, _) -> incr n
        | _ -> ())
      p
  ;
    !n
  in
  Alcotest.(check int) "division kept" (divs prog) (divs simplified);
  let adds p =
    let n = ref 0 in
    Prog.iter_ops
      (fun op ->
        match Op.kind op with
        | Op.Ibin ((Op.Add | Op.Mul), _, Op.Imm _, Op.Imm _) -> incr n
        | _ -> ())
      p
  ;
    !n
  in
  Alcotest.(check bool) "constant ops folded" true (adds simplified < adds prog)

let test_copy_propagation () =
  let prog =
    Helpers.compile ~unroll:false
      "void main() { int a = in(0); int b = a; int c = b; out(c + 1); }"
  in
  let opt = Vliw_opt.Dce.run (Vliw_opt.Simplify.run prog) in
  let copies p =
    let n = ref 0 in
    Prog.iter_ops
      (fun op ->
        match Op.kind op with Op.Un (Op.Copy, _, _) -> incr n | _ -> ())
      p
  ;
    !n
  in
  Alcotest.(check bool) "copies removed" true (copies opt < copies prog);
  Helpers.check_outputs "semantics"
    (Vliw_interp.Interp.run prog ~input:Gen_minic.input).outputs
    (Vliw_interp.Interp.run opt ~input:Gen_minic.input).outputs

let test_dce_removes_dead_code () =
  let prog =
    Helpers.compile ~unroll:false
      "void main() { int dead = in(0) * 37; int live = in(1); out(live); }"
  in
  let opt = Vliw_opt.Dce.run prog in
  Alcotest.(check bool) "ops removed" true
    (Prog.num_ops opt < Prog.num_ops prog);
  Helpers.check_outputs "semantics"
    (Vliw_interp.Interp.run prog ~input:Gen_minic.input).outputs
    (Vliw_interp.Interp.run opt ~input:Gen_minic.input).outputs

let test_dce_keeps_stores_and_allocs () =
  let prog =
    Helpers.compile ~unroll:false
      "int g; void main() { int *p = malloc(2); p[0] = 1; g = 2; out(g); }"
  in
  let opt = Vliw_opt.Dce.run prog in
  let count kind_pred p =
    let n = ref 0 in
    Prog.iter_ops (fun op -> if kind_pred op then incr n) p;
    !n
  in
  Alcotest.(check int) "stores kept" (count Op.is_store prog)
    (count Op.is_store opt);
  Alcotest.(check int) "allocs kept" (count Op.is_alloc prog)
    (count Op.is_alloc opt)

let prop_opt_pipeline_preserves =
  Helpers.qcheck ~count:60
    "promote + simplify + dce + if-convert preserve semantics"
    (fun seed ->
      let src = Gen_minic.gen_program_with_seed seed in
      let prog = Minic.compile src in
      let opt =
        Vliw_opt.Dce.run
          (Vliw_opt.Ifconvert.run
             (Vliw_opt.Dce.run
                (Vliw_opt.Simplify.run (Vliw_opt.Promote.run prog))))
      in
      Vliw_ir.Validate.check opt;
      let a = Vliw_interp.Interp.run prog ~input:Gen_minic.input in
      let b = Vliw_interp.Interp.run opt ~input:Gen_minic.input in
      Helpers.equal_outputs a.outputs b.outputs)
    Gen_minic.arbitrary_program

let pp_digest prog = Digest.to_hex (Digest.string (Fmt.str "%a" Prog.pp prog))

(* Every front-end flag combination on every suite program, and the
   default front end on generated programs, must print exactly the
   program recorded in [Opt_digests]. *)
let test_front_end_golden () =
  let bad = ref [] in
  let check what expected prog =
    let got = pp_digest prog in
    if not (String.equal got expected) then bad := what :: !bad
  in
  List.iter
    (fun (name, digests) ->
      let b = Benchsuite.Suite.find name in
      Array.iteri
        (fun i expected ->
          let flag bit = i land bit <> 0 in
          let p =
            Gdp_core.Pipeline.prepare ~unroll:(flag 8) ~promote:(flag 4)
              ~simplify:(flag 2) ~if_convert:(flag 1) b
          in
          check (Printf.sprintf "%s/flags %d" name i) expected
            p.Gdp_core.Pipeline.prog)
        digests)
    Opt_digests.suite_digests;
  Array.iteri
    (fun seed expected ->
      let b =
        {
          Benchsuite.Bench_intf.name = Printf.sprintf "gen-%d" seed;
          description = "";
          source = Gen_minic.gen_program_with_seed seed;
          input = Gen_minic.input;
          exhaustive_ok = false;
        }
      in
      check (Printf.sprintf "gen_minic seed %d" seed) expected
        (Gdp_core.Pipeline.prepare b).Gdp_core.Pipeline.prog)
    Opt_digests.gen_minic_digests;
  Alcotest.(check int) "suite programs covered"
    (List.length Benchsuite.Suite.all)
    (List.length Opt_digests.suite_digests);
  Alcotest.(check (list string)) "front-end output moved" [] (List.rev !bad)

let suite =
  [
    Alcotest.test_case "if-conversion flattens diamonds" `Quick
      test_ifconvert_flattens_diamonds;
    Alcotest.test_case "if-conversion preserves semantics" `Quick
      test_ifconvert_preserves_semantics;
    Alcotest.test_case "if-conversion keeps loops" `Quick
      test_ifconvert_keeps_loops;
    Alcotest.test_case "if-conversion skips calls" `Quick
      test_ifconvert_skips_calls;
    Alcotest.test_case "nested if-conversion" `Quick test_nested_if_conversion;
    Alcotest.test_case "straightening" `Quick test_straighten;
    Alcotest.test_case "scalar promotion" `Quick test_promote_scalars;
    Alcotest.test_case "promotion skips shared globals" `Quick
      test_promote_skips_shared_globals;
    Alcotest.test_case "promotion skips escaping addresses" `Quick
      test_promote_skips_escaping_address;
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "copy propagation" `Quick test_copy_propagation;
    Alcotest.test_case "dce removes dead code" `Quick test_dce_removes_dead_code;
    Alcotest.test_case "dce keeps effects" `Quick test_dce_keeps_stores_and_allocs;
    prop_opt_pipeline_preserves;
    Alcotest.test_case "front-end golden digests" `Quick
      test_front_end_golden;
  ]

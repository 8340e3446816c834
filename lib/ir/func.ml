(** Functions: a parameter list and an ordered list of basic blocks.

    The first block is the entry.  Block order is the layout order used
    when a conditional branch falls through — though in this IR all
    control transfers are explicit, so order only affects printing and
    the deterministic iteration order of analyses. *)

type t = {
  name : string;
  params : Reg.t list;
  blocks : Block.t list;
  reg_count : int;  (** registers are numbered [0 .. reg_count - 1] *)
}

let v ~name ~params ~blocks ~reg_count =
  (match blocks with
  | [] -> invalid_arg "Func.v: function with no blocks"
  | _ -> ());
  let labels = List.map Block.label blocks in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if Hashtbl.mem seen l then
        invalid_arg (Fmt.str "Func.v: duplicate label %a" Label.pp l);
      Hashtbl.replace seen l ())
    labels;
  { name; params; blocks; reg_count }

let name f = f.name
let params f = f.params
let blocks f = f.blocks
let reg_count f = f.reg_count
let entry f = List.hd f.blocks

let with_blocks f blocks = v ~name:f.name ~params:f.params ~blocks ~reg_count:f.reg_count

(** Map over blocks preserving order. *)
let map_blocks fn f = with_blocks f (List.map fn f.blocks)

let iter_ops fn f =
  List.iter (fun b -> List.iter fn (Block.ops b)) f.blocks

let fold_ops fn acc f =
  List.fold_left
    (fun acc b -> List.fold_left fn acc (Block.ops b))
    acc f.blocks

let num_ops f = List.fold_left (fun n b -> n + Block.num_ops b) 0 f.blocks

(** Label -> block successors map. *)
let successor_map f =
  List.fold_left
    (fun m b -> Label.Map.add (Block.label b) (Block.successors b) m)
    Label.Map.empty f.blocks

let pp ppf f =
  Fmt.pf ppf "@[<v>func %s(%a):@," f.name Fmt.(list ~sep:comma Reg.pp) f.params;
  List.iter (fun b -> Fmt.pf ppf "%a@," Block.pp b) f.blocks;
  Fmt.pf ppf "@]"

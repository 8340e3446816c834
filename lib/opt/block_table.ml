(** A function's blocks in layout order, edited in place.

    Each block keeps its slot for the table's lifetime: a rewrite
    replaces a block where it stands and deletion empties its slot, so
    slot order is always layout order.  Predecessor lists follow every
    rewrite and deletion, so no pass has to rebuild a predecessor map
    after each change. *)

open Vliw_ir

type t = {
  slots : Block.t option array;
  index : (Label.t, int) Hashtbl.t;
  preds : int list array;  (** one slot per incoming edge *)
  mutable first : int;  (** the first live slot: the entry block *)
}

let add_edges t i b =
  List.iter
    (fun l ->
      match Hashtbl.find_opt t.index l with
      | Some j -> t.preds.(j) <- i :: t.preds.(j)
      | None -> ())
    (Block.successors b)

let rec remove_one i = function
  | [] -> []
  | j :: rest -> if j = i then rest else j :: remove_one i rest

let remove_edges t i b =
  List.iter
    (fun l ->
      match Hashtbl.find_opt t.index l with
      | Some j -> t.preds.(j) <- remove_one i t.preds.(j)
      | None -> ())
    (Block.successors b)

let of_func (f : Func.t) : t =
  let slots = Array.of_list (List.map Option.some (Func.blocks f)) in
  let n = Array.length slots in
  let t =
    { slots; index = Hashtbl.create n; preds = Array.make n []; first = 0 }
  in
  Array.iteri
    (fun i b -> Hashtbl.replace t.index (Block.label (Option.get b)) i)
    slots;
  Array.iteri (fun i b -> add_edges t i (Option.get b)) slots;
  t

let length t = Array.length t.slots
let block t i = t.slots.(i)

let find t l =
  match Hashtbl.find_opt t.index l with
  | Some i -> i
  | None -> invalid_arg (Fmt.str "Block_table.find: no block %a" Label.pp l)

let preds t i = t.preds.(i)
let pred_count t i = List.length t.preds.(i)
let entry_label t = Block.label (Option.get t.slots.(t.first))

let set t i b =
  remove_edges t i (Option.get t.slots.(i));
  t.slots.(i) <- Some b;
  add_edges t i b

let delete t i =
  let b = Option.get t.slots.(i) in
  remove_edges t i b;
  t.slots.(i) <- None;
  Hashtbl.remove t.index (Block.label b);
  while t.first < length t && Option.is_none t.slots.(t.first) do
    t.first <- t.first + 1
  done

let to_func f t =
  Func.with_blocks f (List.filter_map Fun.id (Array.to_list t.slots))

module Worklist = struct
  type t = { pending : bool array; mutable low : int  (** none below *) }

  let full n = { pending = Array.make n true; low = 0 }

  let add w i =
    if not w.pending.(i) then begin
      w.pending.(i) <- true;
      if i < w.low then w.low <- i
    end

  let pop w =
    let n = Array.length w.pending in
    while w.low < n && not w.pending.(w.low) do
      w.low <- w.low + 1
    done;
    if w.low = n then None
    else begin
      w.pending.(w.low) <- false;
      Some w.low
    end
end

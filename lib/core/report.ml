(** Plain-text rendering of experiment results: aligned tables and
    horizontal bar charts, so `gdpc experiment` output reads like the
    paper's figures. *)

let bar ?(width = 40) ~max_value v =
  if max_value <= 0. then ""
  else
    let n =
      int_of_float (Float.round (v /. max_value *. float width))
      |> max 0 |> min width
    in
    String.make n '#'

(** Render rows of (label, cells) with a header, aligning columns. *)
let table ppf ~header rows =
  let ncols = List.length header in
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (fun (label, cells) ->
      let all = label :: cells in
      List.iteri
        (fun i s ->
          if i < ncols then widths.(i) <- max widths.(i) (String.length s))
        all)
    rows;
  let pad i s =
    let w = if i < ncols then widths.(i) else String.length s in
    if i = 0 then Printf.sprintf "%-*s" w s else Printf.sprintf "%*s" w s
  in
  Fmt.pf ppf "%s@." (String.concat "  " (List.mapi pad header));
  Fmt.pf ppf "%s@."
    (String.concat "--"
       (List.init ncols (fun i -> String.make widths.(i) '-')));
  List.iter
    (fun (label, cells) ->
      Fmt.pf ppf "%s@." (String.concat "  " (List.mapi pad (label :: cells))))
    rows

(** A labeled horizontal bar chart (used for the figure-style outputs). *)
let bar_chart ppf ~title ~unit rows =
  Fmt.pf ppf "@.%s@." title;
  let max_value =
    List.fold_left (fun acc (_, v) -> Float.max acc (Float.abs v)) 0. rows
  in
  let lw =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 rows
  in
  List.iter
    (fun (label, v) ->
      Fmt.pf ppf "  %-*s %8.2f%s |%s@." lw label v unit
        (bar ~max_value (Float.abs v)))
    rows

let percent ~base v =
  if base = 0 then 0. else (float v -. float base) /. float base *. 100.

let ratio ~base v = if v = 0 then Float.nan else float base /. float v

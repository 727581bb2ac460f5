module Interval = Leopard_util.Interval

type classification = Future | Overlap | Pivot | Pivot_overlap | Garbage

let classification_to_string = function
  | Future -> "future"
  | Overlap -> "overlap"
  | Pivot -> "pivot"
  | Pivot_overlap -> "pivot-overlap"
  | Garbage -> "garbage"

let find_pivot ~snapshot versions =
  (* Newest version whose installation is certainly before the snapshot;
     versions are ascending by commit aft, so the last qualifying one
     wins. *)
  List.fold_left
    (fun acc (v : Version_order.version) ->
      if Interval.certainly_before v.commit_iv snapshot then Some v else acc)
    None versions

let class_of ~snapshot pivot (v : Version_order.version) =
  if Interval.certainly_before snapshot v.commit_iv then Future
  else if Interval.overlaps v.commit_iv snapshot then Overlap
  else
    (* certainly before the snapshot *)
    match pivot with
    | Some p when v == p -> Pivot
    | Some (p : Version_order.version) ->
      if Interval.overlaps v.commit_iv p.commit_iv then Pivot_overlap
      else Garbage
    | None ->
      (* cannot happen: v is certainly before the snapshot, so a pivot
         exists *)
      Pivot

let classify ~snapshot versions =
  let pivot = find_pivot ~snapshot versions in
  List.map (fun v -> (v, class_of ~snapshot pivot v)) versions

let candidates ~snapshot versions =
  let pivot = find_pivot ~snapshot versions in
  List.filter
    (fun v ->
      match class_of ~snapshot pivot v with
      | Overlap | Pivot | Pivot_overlap -> true
      | Future | Garbage -> false)
    versions

let has_pivot ~snapshot versions = find_pivot ~snapshot versions <> None

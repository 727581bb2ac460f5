module Interval = Leopard_util.Interval

type entry = {
  ftxn : int;
  snapshot_iv : Interval.t;
  commit_iv : Interval.t;
}

type verdict = Violation | Ww of int * int | Unordered

let judge ~a ~b =
  let a_first = Interval.possibly_before a.commit_iv b.snapshot_iv in
  let b_first = Interval.possibly_before b.commit_iv a.snapshot_iv in
  match (a_first, b_first) with
  | false, false -> Violation
  | true, false -> Ww (a.ftxn, b.ftxn)
  | false, true -> Ww (b.ftxn, a.ftxn)
  | true, true -> Unordered

type t = {
  rows : (int * int, entry list ref) Hashtbl.t;
  mutable live : int;
}

let create () = { rows = Hashtbl.create 1024; live = 0 }

let row_entries t row =
  match Hashtbl.find_opt t.rows row with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.replace t.rows row r;
    r

let register t ~row entry ~on_pair =
  let entries = row_entries t row in
  List.iter
    (fun other ->
      if other.ftxn <> entry.ftxn then
        on_pair ~row ~other (judge ~a:other ~b:entry))
    !entries;
  entries := entry :: !entries;
  t.live <- t.live + 1

let live_entries t = t.live

let referenced_txns t =
  Hashtbl.fold
    (fun _ entries acc ->
      List.fold_left (fun acc e -> e.ftxn :: acc) acc !entries)
    t.rows []
  |> List.sort_uniq Int.compare

(* Checkpoint codec: one record per entry, row-major sorted, entries in
   list order ([register] evaluates a newcomer against the list in that
   order, pinning pair-evaluation order). *)
type row = (int * int) * entry

let row =
  Leopard_trace.Field.(
    pair '\t' (pair '\t' int int)
      (record (fun ftxn snapshot_iv commit_iv ->
           { ftxn; snapshot_iv; commit_iv })
      |> field int (fun e -> e.ftxn)
      |> field (interval '\t') (fun e -> e.snapshot_iv)
      |> field (interval '\t') (fun e -> e.commit_iv)
      |> seal '\t'))

let dump t emit =
  Hashtbl.fold (fun row entries acc -> (row, !entries) :: acc) t.rows []
  |> List.sort (fun (a, _) (b, _) -> Leopard_trace.Cell.compare_row_key a b)
  |> List.iter (fun (row, entries) ->
         List.iter (fun e -> emit (row, e)) entries)

let restore t rows =
  List.iter
    (fun (row, e) ->
      let entries = row_entries t row in
      entries := e :: !entries;
      t.live <- t.live + 1)
    (List.rev rows)

let prune t ~horizon =
  let dropped = ref 0 in
  (* lint: allow hashtbl-order — per-key in-place prune plus a
     commutative drop count *)
  Hashtbl.iter
    (fun _row entries ->
      let keep, drop =
        List.partition
          (fun e -> Interval.aft e.commit_iv > horizon)
          !entries
      in
      dropped := !dropped + List.length drop;
      entries := keep)
    t.rows;
  t.live <- t.live - !dropped;
  !dropped

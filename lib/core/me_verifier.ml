module Interval = Leopard_util.Interval

type mode = S | X

type entry = {
  etxn : int;
  mode : mode;
  acquire_iv : Interval.t;
  mutable release_iv : Interval.t option;
}

type verdict = Violation | Ww of int * int | Unordered

let conflicting a b =
  match (a, b) with S, S -> false | S, X | X, S | X, X -> true

let judge ~mine ~other =
  match (mine.release_iv, other.release_iv) with
  | Some r_mine, Some r_other ->
    (* "mine before other" is feasible iff my release can precede the
       other's acquisition. *)
    let mine_first = Interval.possibly_before r_mine other.acquire_iv in
    let other_first = Interval.possibly_before r_other mine.acquire_iv in
    (match (mine_first, other_first) with
    | false, false -> Violation
    | true, false -> Ww (mine.etxn, other.etxn)
    | false, true -> Ww (other.etxn, mine.etxn)
    | true, true -> Unordered)
  | None, _ | _, None ->
    invalid_arg "Me_verifier.judge: both entries must be released"

type t = {
  rows : (int * int, entry list ref) Hashtbl.t;
  by_txn : (int, (int * int) list) Hashtbl.t;
  mutable live : int;
}

let create () = { rows = Hashtbl.create 1024; by_txn = Hashtbl.create 256; live = 0 }

let row_entries t row =
  match Hashtbl.find_opt t.rows row with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.replace t.rows row r;
    r

(* A transaction keeps at most one entry per mode on a row.  Crucially, an
   S-to-X upgrade adds a *separate* X entry dated at the upgrading
   operation: the exclusive hold only starts at the upgrade, and dating it
   back to the S acquisition would falsely conflict with concurrent S
   readers the engine legitimately admitted. *)
let acquire t ~row ~txn mode ~iv =
  let entries = row_entries t row in
  let has m = List.exists (fun e -> e.etxn = txn && e.mode = m) !entries in
  let covered = match mode with X -> has X | S -> has S || has X in
  if not covered then begin
    entries :=
      { etxn = txn; mode; acquire_iv = iv; release_iv = None } :: !entries;
    t.live <- t.live + 1;
    let rows = Option.value ~default:[] (Hashtbl.find_opt t.by_txn txn) in
    if not (List.mem row rows) then Hashtbl.replace t.by_txn txn (row :: rows)
  end

let release t ~txn ~iv ~on_pair =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> ()
  | Some rows ->
    Hashtbl.remove t.by_txn txn;
    List.iter
      (fun row ->
        match Hashtbl.find_opt t.rows row with
        | None -> ()
        | Some entries ->
          let mine_entries =
            List.filter (fun e -> e.etxn = txn && e.release_iv = None) !entries
          in
          List.iter
            (fun mine ->
              mine.release_iv <- Some iv;
              List.iter
                (fun other ->
                  if
                    other.etxn <> txn
                    && conflicting mine.mode other.mode
                    && other.release_iv <> None
                  then on_pair ~row ~mine ~other (judge ~mine ~other))
                !entries)
            mine_entries)
      rows

let discard t ~txn =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> ()
  | Some rows ->
    Hashtbl.remove t.by_txn txn;
    List.iter
      (fun row ->
        match Hashtbl.find_opt t.rows row with
        | None -> ()
        | Some entries ->
          let keep, drop =
            List.partition (fun e -> e.etxn <> txn) !entries
          in
          t.live <- t.live - List.length drop;
          entries := keep)
      rows

let live_entries t = t.live

let referenced_txns t =
  let from_rows =
    Hashtbl.fold
      (fun _ entries acc ->
        List.fold_left (fun acc e -> e.etxn :: acc) acc !entries)
      t.rows []
    |> List.sort_uniq Int.compare
  in
  Hashtbl.fold (fun txn _ acc -> txn :: acc) t.by_txn from_rows
  |> List.sort_uniq Int.compare

(* Checkpoint codec.  Two kinds of record: [e] (one per lock entry,
   row-major sorted, entries in list order — [release] evaluates pairs in
   that order, so it pins bug-detection order) and [t] (one per
   transaction's by_txn binding, txn-sorted, row-list order preserved —
   [release] walks rows in that order). *)
type row = Lock of (int * int) * entry | Holds of int * (int * int) list

let row =
  let open Leopard_trace.Field in
  let key = pair '\t' int int in
  let entry =
    record (fun etxn mode acquire_iv release_iv ->
        { etxn; mode; acquire_iv; release_iv })
    |> field int (fun e -> e.etxn)
    |> field (enum (function S -> "S" | X -> "X") [ S; X ]) (fun e -> e.mode)
    |> field (interval '\t') (fun e -> e.acquire_iv)
    |> field (option ~none:"-\t-" (interval '\t')) (fun e -> e.release_iv)
    |> seal '\t'
  in
  union '\t'
    [
      case "e" (pair '\t' key entry)
        (function Lock (k, e) -> Some (k, e) | Holds _ -> None)
        (fun (k, e) -> Lock (k, e));
      case "t"
        (pair '\t' int (list ';' (pair ',' int int)))
        (function Holds (txn, rows) -> Some (txn, rows) | Lock _ -> None)
        (fun (txn, rows) -> Holds (txn, rows));
    ]

let dump t emit =
  Hashtbl.fold (fun row entries acc -> (row, !entries) :: acc) t.rows []
  |> List.sort (fun (a, _) (b, _) -> Leopard_trace.Cell.compare_row_key a b)
  |> List.iter (fun (row, entries) ->
         List.iter (fun e -> emit (Lock (row, e))) entries);
  Hashtbl.fold (fun txn rows acc -> (txn, rows) :: acc) t.by_txn []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (txn, rows) -> emit (Holds (txn, rows)))

let restore t rows =
  List.iter
    (function
      | Lock (row, e) ->
        let entries = row_entries t row in
        entries := e :: !entries;
        t.live <- t.live + 1
      | Holds (txn, rows) -> Hashtbl.replace t.by_txn txn rows)
    (List.rev rows)

let prune t ~horizon =
  let dropped = ref 0 in
  (* lint: allow hashtbl-order — per-key in-place prune plus a
     commutative drop count *)
  Hashtbl.iter
    (fun _row entries ->
      let keep, drop =
        List.partition
          (fun e ->
            match e.release_iv with
            | Some r -> Interval.aft r > horizon
            | None -> true)
          !entries
      in
      dropped := !dropped + List.length drop;
      entries := keep)
    t.rows;
  t.live <- t.live - !dropped;
  !dropped

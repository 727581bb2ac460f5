(* Robustness fuzzing: arbitrary well-formed trace soups must never crash
   the checker, whatever profile runs, and its counters must stay
   consistent.  (Soundness on *plausible* histories is covered by the
   integration suite; this is about total functions on hostile input.) *)

module Trace = Leopard_trace.Trace

let gen_soup =
  QCheck.Gen.(
    let cell =
      map2
        (fun r c -> Leopard_trace.Cell.make ~table:0 ~row:r ~col:c)
        (int_bound 5) (int_bound 1)
    in
    let item = map2 (fun c v -> (c, v)) cell (int_bound 6) in
    (* a pool of transactions, each with a monotone local time cursor *)
    list_size (0 -- 120)
      (pair (int_bound 7) (pair (int_bound 3) (list_size (1 -- 3) item))))

let build_traces ops =
  (* assign monotone interval starts globally; ops of one txn stay in
     order AND sequential (a real client only issues the next call after
     the previous reply); terminal state tracked so a txn never acts
     after ending *)
  let time = ref 0 in
  let ended = Hashtbl.create 8 in
  let last_aft = Hashtbl.create 8 in
  let acc = ref [] in
  List.iter
    (fun (txn, (kind, items)) ->
      if not (Hashtbl.mem ended txn) then begin
        time := !time + 1 + (txn mod 3);
        let bef =
          max !time (1 + Option.value ~default:0 (Hashtbl.find_opt last_aft txn))
        in
        let aft = bef + 1 + ((txn * 7) mod 5) in
        Hashtbl.replace last_aft txn aft;
        time := max !time bef;
        let payload =
          match kind with
          | 0 ->
            Trace.Read
              {
                items =
                  List.map (fun (cell, value) -> { Trace.cell; value }) items;
                locking = txn mod 2 = 0;
              }
          | 1 ->
            Trace.Write
              (List.map (fun (cell, value) -> { Trace.cell; value }) items)
          | 2 ->
            Hashtbl.replace ended txn ();
            Trace.Commit
          | _ ->
            Hashtbl.replace ended txn ();
            Trace.Abort
        in
        acc := { Trace.ts_bef = bef; ts_aft = aft; txn; client = txn; payload } :: !acc
      end)
    ops;
  List.rev !acc

let profiles =
  [
    Leopard.Il_profile.postgresql_serializable;
    Leopard.Il_profile.postgresql_rc;
    Leopard.Il_profile.innodb_serializable;
    Leopard.Il_profile.tidb_rr;
    Leopard.Il_profile.cockroachdb_serializable;
    Leopard.Il_profile.sqlite_serializable;
    Leopard.Il_profile.foundationdb_serializable;
  ]

let prop_no_crash =
  QCheck.Test.make ~name:"checker total on arbitrary histories" ~count:300
    (QCheck.make gen_soup)
    (fun ops ->
      let traces = build_traces ops in
      List.for_all
        (fun profile ->
          let checker = Leopard.Checker.create ~gc_every:7 profile in
          List.iter (Leopard.Checker.feed checker) traces;
          Leopard.Checker.finalize checker;
          let r = Leopard.Checker.report checker in
          r.traces = List.length traces
          && r.bugs_total >= List.length r.bugs
          && r.committed + r.aborted
             <= List.length (List.filter Trace.is_terminal traces)
          && r.final_live >= 0
          && r.peak_live >= r.final_live)
        profiles)

let prop_gc_invariant_verdicts =
  QCheck.Test.make ~name:"gc cadence never changes verdicts" ~count:150
    (QCheck.make gen_soup)
    (fun ops ->
      let traces = build_traces ops in
      let bugs gc_every =
        let checker =
          Leopard.Checker.create ~gc_every
            Leopard.Il_profile.postgresql_serializable
        in
        List.iter (Leopard.Checker.feed checker) traces;
        Leopard.Checker.finalize checker;
        (Leopard.Checker.report checker).bugs_total
      in
      bugs 0 = bugs 1 && bugs 0 = bugs 13)

let prop_codec_roundtrip_soup =
  QCheck.Test.make ~name:"codec roundtrips fuzzed histories" ~count:200
    (QCheck.make gen_soup)
    (fun ops ->
      let traces = build_traces ops in
      let lines = List.map Leopard_trace.Codec.to_line traces in
      let decoded =
        List.map
          (fun l ->
            match Leopard_trace.Codec.of_line l with
            | Ok (Some t) -> t
            | Ok None | Error _ -> raise Exit)
          lines
      in
      List.map Trace.to_string decoded = List.map Trace.to_string traces)

(* Lenient loading under line-level corruption: whatever bytes a mutated
   trace file holds — traces interleaved with E (restart), U (ambiguous
   commit), L (failover), S (shard topology) and P (2PC round) marker
   lines, all five kinds mid-stream as a stacked-plane run emits them —
   [load_lenient_all] must return (never raise), decode exactly the
   lines [entry_of_line] accepts, and report every rejected line — by
   number — as skipped.  An unmutated file skips nothing and decodes
   every marker kind with exact per-kind counts. *)
let gen_mutated_file =
  QCheck.Gen.(
    let mutation =
      (* (line pick, kind, position pick, replacement byte) *)
      quad (int_bound 200) (int_bound 3) (int_bound 80)
        (map Char.chr (32 -- 126))
    in
    pair gen_soup (list_size (0 -- 8) mutation))

let mutate_line kind pos byte line =
  let n = String.length line in
  match kind with
  | 0 when n > 0 ->
    (* flip one byte *)
    let b = Bytes.of_string line in
    Bytes.set b (pos mod n) byte;
    Bytes.to_string b
  | 1 when n > 0 -> String.sub line 0 (pos mod n) (* truncate *)
  | 2 -> String.make (1 + (pos mod 7)) byte (* replace with junk *)
  | _ -> Printf.sprintf "%c %s" byte line (* bogus directive prefix *)

let write_lines path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

let lenient_load_oracle lines =
  let path = Filename.temp_file "leopard-fuzz" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_lines path lines;
      let contents, skipped = Leopard_trace.Codec.load_lenient_all ~path in
      let expect_bad =
        List.filter_map Fun.id
          (List.mapi
             (fun i line ->
               match Leopard_trace.Codec.entry_of_line line with
               | Error _ -> Some (i + 1)
               | Ok _ -> None)
             lines)
      in
      List.map fst skipped = expect_bad
      && List.length contents.Leopard_trace.Codec.c_traces
         + List.length contents.Leopard_trace.Codec.c_epochs
         + List.length contents.Leopard_trace.Codec.c_ambiguous
         + List.length contents.Leopard_trace.Codec.c_leaders
         + List.length contents.Leopard_trace.Codec.c_shards
         + List.length contents.Leopard_trace.Codec.c_prepares
         + List.length skipped
         <= List.length lines)

let interleave_markers traces =
  (* one E and one S header, then every marker kind mid-stream — the
     line order a stacked run (shards + per-shard replicas + WAL
     epochs) actually produces; returns the per-kind marker counts so
     the clean-stream check can assert count exactness *)
  let e = ref 1 and u = ref 0 and l = ref 0 and s = ref 1 and p = ref 0 in
  let body =
    List.concat
      (List.mapi
         (fun i t ->
           let line = Leopard_trace.Codec.to_line t in
           match i mod 5 with
           | 0 ->
             incr e;
             [
               line;
               Leopard_trace.Codec.epoch_to_line
                 {
                   Leopard_trace.Codec.at = t.Trace.ts_aft;
                   epoch = !e;
                   replayed = i mod 4;
                   damaged = i mod 2;
                 };
             ]
           | 1 ->
             incr p;
             [
               line;
               Leopard_trace.Codec.prepare_to_line
                 {
                   Leopard_trace.Codec.at = t.Trace.ts_aft;
                   txn = t.Trace.txn;
                   shards = [ 0; 1 ];
                   disposition =
                     (match i mod 3 with
                     | 0 -> Leopard_trace.Codec.Committed
                     | 1 -> Leopard_trace.Codec.Aborted
                     | _ -> Leopard_trace.Codec.Unknown);
                 };
             ]
           | 2 ->
             incr u;
             [
               line;
               Leopard_trace.Codec.ambiguous_to_line
                 {
                   Leopard_trace.Codec.at = t.Trace.ts_aft;
                   txn = t.Trace.txn;
                   client = t.Trace.client;
                 };
             ]
           | 3 ->
             incr s;
             [
               line;
               Leopard_trace.Codec.shard_to_line
                 {
                   Leopard_trace.Codec.at = t.Trace.ts_aft;
                   shards = 2 + (i mod 3);
                 };
             ]
           | _ ->
             incr l;
             [
               line;
               Leopard_trace.Codec.leader_to_line
                 {
                   Leopard_trace.Codec.at = t.Trace.ts_aft;
                   epoch = 1 + (i / 5);
                   primary = i mod 3;
                   lost = (if i mod 2 = 0 then [] else [ t.Trace.txn ]);
                 };
             ])
         traces)
  in
  let lines =
    Leopard_trace.Codec.epoch_to_line
      { Leopard_trace.Codec.at = 1; epoch = 1; replayed = 0; damaged = 0 }
    :: Leopard_trace.Codec.shard_to_line
         { Leopard_trace.Codec.at = 0; shards = 2 }
    :: body
  in
  (lines, (!e, !u, !l, !s, !p))

(* The unmutated stream decodes with exact per-kind counts: no marker
   kind is silently dropped, none double-counted. *)
let clean_counts_exact lines (e, u, l, s, p) ~traces =
  let path = Filename.temp_file "leopard-fuzz" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_lines path lines;
      let contents, skipped = Leopard_trace.Codec.load_lenient_all ~path in
      skipped = []
      && List.length contents.Leopard_trace.Codec.c_traces = traces
      && List.length contents.Leopard_trace.Codec.c_epochs = e
      && List.length contents.Leopard_trace.Codec.c_ambiguous = u
      && List.length contents.Leopard_trace.Codec.c_leaders = l
      && List.length contents.Leopard_trace.Codec.c_shards = s
      && List.length contents.Leopard_trace.Codec.c_prepares = p)

let prop_lenient_total_on_mutations =
  QCheck.Test.make ~name:"lenient load total on mutated files" ~count:200
    (QCheck.make gen_mutated_file)
    (fun (ops, mutations) ->
      let traces = build_traces ops in
      let clean_lines, counts = interleave_markers traces in
      let mutated =
        List.fold_left
          (fun lines (idx, kind, pos, byte) ->
            let n = List.length lines in
            if n = 0 then lines
            else
              List.mapi
                (fun i l -> if i = idx mod n then mutate_line kind pos byte l else l)
                lines)
          clean_lines mutations
      in
      (* unmutated file: nothing skipped, per-kind counts exact *)
      (mutations <> []
      || clean_counts_exact clean_lines counts ~traces:(List.length traces))
      && lenient_load_oracle mutated)

(* Deduction log against a model: an association list from (kind, from,
   to) to the first record deduced for it.  Random add/mem/drop
   sequences over six transactions, so triples recur across sources and
   a drop often removes entries with both endpoints gone. *)
module Dep = Leopard.Dep

type log_op =
  | Add of Dep.t
  | Mem of Dep.kind * int * int
  | Drop of bool array  (* kept transactions, by id *)

let kind_rank = function Dep.Ww -> 0 | Wr -> 1 | Rw -> 2

let compare_dep (a : Dep.t) (b : Dep.t) =
  let c = Int.compare (kind_rank a.kind) (kind_rank b.kind) in
  if c <> 0 then c
  else
    let c = Int.compare a.from_txn b.from_txn in
    if c <> 0 then c
    else
      let c = Int.compare a.to_txn b.to_txn in
      if c <> 0 then c
      else Int.compare (Dep.source_rank a.source) (Dep.source_rank b.source)

let dep_to_string (d : Dep.t) =
  Printf.sprintf "%s %d->%d %s" (Dep.kind_to_string d.kind) d.from_txn
    d.to_txn (Dep.source_to_string d.source)

let log_op_to_string = function
  | Add d -> "add " ^ dep_to_string d
  | Mem (k, a, b) -> Printf.sprintf "mem %s %d->%d" (Dep.kind_to_string k) a b
  | Drop keep ->
    "drop keep="
    ^ String.concat ","
        (List.filteri (fun i _ -> keep.(i)) (List.init 6 string_of_int))

let gen_log_ops =
  QCheck.Gen.(
    let txn = int_bound 5 in
    let kind = oneofl [ Dep.Ww; Wr; Rw ] in
    let dep =
      map3
        (fun kind (from_txn, to_txn) source ->
          { Dep.kind; from_txn; to_txn; source })
        kind (pair txn txn) (oneofl Dep.all_sources)
    in
    list_size (0 -- 60)
      (frequency
         [
           (6, map (fun d -> Add d) dep);
           (2, map3 (fun k a b -> Mem (k, a, b)) kind txn txn);
           (1, map (fun l -> Drop (Array.of_list l)) (list_repeat 6 bool));
         ]))

let run_log_model ops =
  let log = Dep.Log.create () in
  let model = ref [] in
  let key (d : Dep.t) = (d.kind, d.from_txn, d.to_txn) in
  let step = function
    | Add d ->
      let fresh = not (List.mem_assoc (key d) !model) in
      if fresh then model := (key d, d) :: !model;
      Dep.Log.add log d = fresh
    | Mem (k, a, b) -> Dep.Log.mem log k a b = List.mem_assoc (k, a, b) !model
    | Drop keep ->
      let kept, gone =
        List.partition
          (fun (_, (d : Dep.t)) -> keep.(d.from_txn) && keep.(d.to_txn))
          !model
      in
      model := kept;
      let seen = ref [] in
      Dep.Log.drop log ~keep:(fun id -> keep.(id)) (fun d -> seen := d :: !seen);
      List.sort compare_dep !seen = List.sort compare_dep (List.map snd gone)
  in
  let consistent () =
    let by_source s =
      List.length (List.filter (fun (_, (d : Dep.t)) -> d.source = s) !model)
    in
    Dep.Log.count log = List.length !model
    && List.for_all
         (fun s -> Dep.Log.by_source log s = by_source s)
         Dep.all_sources
    && Dep.Log.entries log = List.sort compare_dep (List.map snd !model)
  in
  List.for_all (fun op -> step op && consistent ()) ops

let prop_log_model =
  QCheck.Test.make ~name:"deduction log agrees with an association-list model"
    ~count:300
    (QCheck.make gen_log_ops ~print:(fun ops ->
         String.concat "; " (List.map log_op_to_string ops)))
    run_log_model

(* The case the one-pass drop must not double count: an entry whose two
   endpoints both leave in the same pass is handed over once. *)
let test_log_drop_both_endpoints () =
  let d kind from_txn to_txn source = { Dep.kind; from_txn; to_txn; source } in
  let ops =
    [
      Add (d Ww 1 2 From_me);
      Add (d Wr 2 1 From_cr);
      Add (d Rw 2 3 Derived_rw);
      Add (d Ww 1 2 From_fuw);
      Drop [| true; false; false; true; true; true |];
      Add (d Ww 1 2 From_fuw);
      Drop [| false; false; false; false; false; false |];
    ]
  in
  Alcotest.(check bool) "model agrees" true (run_log_model ops)

let suite =
  [
    Helpers.qtest prop_no_crash;
    Helpers.qtest prop_gc_invariant_verdicts;
    Helpers.qtest prop_codec_roundtrip_soup;
    Helpers.qtest prop_lenient_total_on_mutations;
    Helpers.qtest prop_log_model;
    Alcotest.test_case "log drop: both endpoints in one pass" `Quick
      test_log_drop_both_endpoints;
  ]

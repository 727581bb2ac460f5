(* The checker snapshot format, pinned and damage-tolerant.

   - [snapshot_fixtures/*.frame] are [Checker.encode] frames written by
     an earlier build from the deterministic inputs in [inputs], one
     payload line per file line.  Between them they carry every record
     tag.  Each fixture decodes and re-encodes to the same bytes, and
     re-running its input encodes to the fixture bytes, so a change to
     the snapshot syntax that would strand frames already on disk fails
     here.
   - [Checker.decode] is total on damaged frames: replacing, dropping or
     appending one field of one line of a real frame gives [Ok] or
     [Error], never an exception. *)

module W = Leopard_workload
module Il = Leopard.Il_profile
module Checker = Leopard.Checker
module Trace = Leopard_trace.Trace

let all_tags =
  [ "h"; "s"; "fs"; "mc"; "b"; "x"; "xw"; "xd"; "df"; "ir"; "av"; "nv";
    "mk"; "aw"; "du"; "vo"; "me"; "fw"; "sc"; "dl" ]

(* Feed the first [cut] traces (after [marks]), truncate at the last fed
   trace if asked, and encode. *)
let frame ?(marks = fun _ -> ()) ?(truncate = false) il ~cut traces =
  let c = Checker.create il in
  marks c;
  List.iteri (fun i tr -> if i < cut then Checker.feed c tr) traces;
  if truncate then
    Checker.truncate c ~watermark:(List.nth traces (cut - 1)).Trace.ts_bef;
  (il, Checker.encode c)

let probe_traces fault ~seed ~txns =
  let p = W.Probes.for_fault fault in
  let o =
    Helpers.run_workload ~clients:p.clients ~txns ~seed
      ~faults:(Minidb.Fault.Set.singleton p.fault)
      ~spec:p.spec ~profile:p.db_profile ~level:p.level ()
  in
  ( Option.get (Il.find p.verifier_profile),
    Leopard_harness.Run.all_traces_sorted o )

let inputs =
  [
    (* postgresql/SR: lock entries, FUW registry and the SC graph *)
    ( "postgresql-sr",
      fun () ->
        let o =
          Helpers.run_workload ~clients:6 ~txns:60 ~seed:1
            ~spec:(W.Blindw.spec ~rows:8 W.Blindw.RW)
            ~profile:Minidb.Profile.postgresql
            ~level:Minidb.Isolation.Serializable ()
        in
        let traces = Leopard_harness.Run.all_traces_sorted o in
        frame Il.postgresql_serializable
          ~cut:(2 * List.length traces / 3)
          traces );
    (* a planted fault: bugs and per-mechanism counts, cut and truncated *)
    ( "planted-stale-read",
      fun () ->
        let il, traces =
          probe_traces Minidb.Fault.Stale_read ~seed:0 ~txns:80
        in
        frame ~truncate:true il ~cut:(List.length traces / 2) traces );
    (* one transaction per uncertainty channel, cut after the read that
       parks on the ambiguous writer and before the reader commits; txn
       7 reads a cell no trace has written yet *)
    ( "marked",
      fun () ->
        let marks c =
          List.iter
            (fun (channel, txn) -> Checker.mark c ~channel ~txn)
            Checker.
              [ (Crashed, 1); (Ambiguous, 2); (Coordinator, 3); (Lost, 4) ]
        in
        frame ~marks Il.postgresql_serializable ~cut:8
          Helpers.
            [
              write ~txn:1 ~bef:10 ~aft:20 [ (cell 1, 100) ];
              write ~txn:2 ~bef:11 ~aft:21 [ (cell 2, 200) ];
              write ~txn:3 ~bef:12 ~aft:22 [ (cell 3, 300) ];
              write ~txn:4 ~bef:13 ~aft:23 [ (cell 4, 400) ];
              commit ~txn:4 ~bef:30 ~aft:40 ();
              read ~txn:5 ~bef:100 ~aft:110 [ (cell 2, 200); (cell 4, 400) ];
              read ~txn:7 ~bef:150 ~aft:160 [ (cell 9, 0) ];
              read ~txn:6 ~bef:200 ~aft:210 [ (cell 1, 0); (cell 3, 0) ];
              commit ~txn:5 ~bef:220 ~aft:230 ();
            ] );
  ]

let fixture_lines name =
  let path = Filename.concat "snapshot_fixtures" (name ^ ".frame") in
  match
    List.rev
      (String.split_on_char '\n'
         (In_channel.with_open_bin path In_channel.input_all))
  with
  | "" :: rev -> List.rev rev
  | _ -> Alcotest.failf "%s: not newline-terminated" path

(* (name, profile, fixture lines, fresh encoding of the same input) *)
let cases =
  lazy
    (List.map
       (fun (name, input) ->
         let il, fresh = input () in
         (name, il, fixture_lines name, fresh))
       inputs)

let tag line =
  match String.index_opt line '\t' with
  | Some i -> String.sub line 0 i
  | None -> line

let test_fixtures_cover_every_tag () =
  let tags =
    List.concat_map
      (fun (_, _, lines, _) -> List.map tag lines)
      (Lazy.force cases)
  in
  Alcotest.(check (list string))
    "tags"
    (List.sort String.compare all_tags)
    (List.sort_uniq String.compare tags)

let test_fixtures_reencode () =
  List.iter
    (fun (name, il, lines, _) ->
      match Checker.decode il lines with
      | Ok c ->
        Alcotest.(check (list string))
          (name ^ ": re-encodes to the fixture bytes") lines (Checker.encode c)
      | Error e -> Alcotest.failf "%s: fixture does not decode: %s" name e)
    (Lazy.force cases)

let test_inputs_encode_to_fixtures () =
  List.iter
    (fun (name, _, lines, fresh) ->
      Alcotest.(check (list string))
        (name ^ ": same input, same bytes") lines fresh)
    (Lazy.force cases)

(* One damaged field of one line: replaced, dropped, or with something
   appended to it. *)
let mutations =
  [|
    (fun _ -> [ "x" ]); (fun _ -> [ "" ]); (fun _ -> [ "-" ]);
    (fun _ -> [ "-1" ]); (fun _ -> [ "1,2" ]); (fun _ -> []);
    (fun f -> [ f; "7" ]); (fun f -> [ f ^ ";1,2,3" ]);
  |]

let damage lines ~line ~field ~mutation =
  let line = line mod List.length lines in
  List.mapi
    (fun i l ->
      if i <> line then l
      else
        let fields = String.split_on_char '\t' l in
        let field = field mod List.length fields in
        String.concat "\t"
          (List.concat
             (List.mapi
                (fun j f ->
                  if j <> field then [ f ]
                  else mutations.(mutation mod Array.length mutations) f)
                fields)))
    lines

let prop_decode_total_on_damage =
  QCheck.Test.make ~name:"decode total on damaged frames" ~count:2000
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (which, line, field, mutation) ->
      let cases = Lazy.force cases in
      let _, il, lines, _ = List.nth cases (which mod List.length cases) in
      match Checker.decode il (damage lines ~line ~field ~mutation) with
      | Ok _ | Error _ -> true)

let suite =
  [
    Alcotest.test_case "fixtures cover every record tag" `Quick
      test_fixtures_cover_every_tag;
    Alcotest.test_case "fixtures decode and re-encode byte-identically" `Quick
      test_fixtures_reencode;
    Alcotest.test_case "inputs encode to the fixture bytes" `Quick
      test_inputs_encode_to_fixtures;
    Helpers.qtest prop_decode_total_on_damage;
  ]

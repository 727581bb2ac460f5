module Candidate = Leopard.Candidate
module Version_order = Leopard.Version_order
module Interval = Leopard_util.Interval

let iv = Helpers.iv

let version ?(txn = 0) ~value ~commit () =
  {
    Version_order.value;
    vtxn = txn;
    write_iv = commit;
    commit_iv = commit;
    readers = [];
  }

(* Fig. 6: five categories around a snapshot at (100, 110). *)
let snapshot = iv 100 110

let garbage = version ~txn:1 ~value:1 ~commit:(iv 10 20) ()
let pivot_overlap = version ~txn:2 ~value:2 ~commit:(iv 35 55) ()
let pivot = version ~txn:3 ~value:3 ~commit:(iv 40 60) ()
let overlap = version ~txn:4 ~value:4 ~commit:(iv 95 105) ()
let future = version ~txn:5 ~value:5 ~commit:(iv 120 130) ()

let chain = [ garbage; pivot_overlap; pivot; overlap; future ]

let classification_of vs target =
  List.assq target
    (List.map (fun (v, c) -> (v, c)) (Candidate.classify ~snapshot vs))

let test_fig6_classification () =
  let cls v = classification_of chain v in
  Alcotest.(check string) "garbage" "garbage"
    (Candidate.classification_to_string (cls garbage));
  Alcotest.(check string) "pivot overlap" "pivot-overlap"
    (Candidate.classification_to_string (cls pivot_overlap));
  Alcotest.(check string) "pivot" "pivot"
    (Candidate.classification_to_string (cls pivot));
  Alcotest.(check string) "overlap" "overlap"
    (Candidate.classification_to_string (cls overlap));
  Alcotest.(check string) "future" "future"
    (Candidate.classification_to_string (cls future))

let test_candidates_minimal () =
  let cands = Candidate.candidates ~snapshot chain in
  Alcotest.(check (list int)) "candidate values" [ 2; 3; 4 ]
    (List.map (fun (v : Version_order.version) -> v.value) cands)

let test_no_pivot () =
  let vs = [ overlap; future ] in
  Alcotest.(check bool) "no pivot" false (Candidate.has_pivot ~snapshot vs);
  Alcotest.(check (list int)) "only overlap candidates" [ 4 ]
    (List.map
       (fun (v : Version_order.version) -> v.value)
       (Candidate.candidates ~snapshot vs))

let test_single_version () =
  let vs = [ pivot ] in
  Alcotest.(check (list int)) "lone pivot is candidate" [ 3 ]
    (List.map
       (fun (v : Version_order.version) -> v.value)
       (Candidate.candidates ~snapshot vs))

let test_empty_chain () =
  Alcotest.(check int) "no candidates" 0
    (List.length (Candidate.candidates ~snapshot []))

(* Theorem 2, soundness half, by monte-carlo: sample exact instants
   consistent with every interval; the version actually visible must be in
   the candidate set. *)
let prop_sampled_visible_is_candidate =
  let gen =
    QCheck.Gen.(
      let interval =
        map2 (fun a b -> iv (min a b) (max a b + 1)) (int_bound 200) (int_bound 200)
      in
      pair (list_size (1 -- 8) interval) interval)
  in
  let arb =
    QCheck.make gen ~print:(fun (vs, s) ->
        Printf.sprintf "versions=[%s] snapshot=%s"
          (String.concat ";" (List.map Interval.to_string vs))
          (Interval.to_string s))
  in
  QCheck.Test.make ~name:"theorem 2: sampled visible version is a candidate"
    ~count:500 arb
    (fun (commit_ivs, snapshot) ->
      let rng = Leopard_util.Rng.create (Hashtbl.hash (commit_ivs, snapshot)) in
      let versions =
        List.mapi
          (fun i commit -> version ~txn:i ~value:i ~commit ())
          commit_ivs
      in
      let sorted =
        List.sort
          (fun (a : Version_order.version) b ->
            Interval.compare_by_aft a.commit_iv b.commit_iv)
          versions
      in
      let candidates = Candidate.candidates ~snapshot sorted in
      (* sample exact instants uniformly inside each open interval *)
      let instant i =
        let lo = Interval.bef i and hi = Interval.aft i in
        float_of_int lo
        +. Leopard_util.Rng.float rng (float_of_int (hi - lo))
        +. 1e-6
      in
      let snap_instant = instant snapshot in
      let visible =
        List.fold_left
          (fun acc (v : Version_order.version) ->
            let t = instant v.commit_iv in
            if t < snap_instant then
              match acc with
              | Some (_, best) when best >= t -> acc
              | _ -> Some (v, t)
            else acc)
          None sorted
      in
      match visible with
      | None -> true (* read would see the initial state *)
      | Some (v, _) -> List.memq v candidates)

(* [candidates] takes one pass without building [classify]'s list; it
   must keep exactly the versions [classify] marks possibly visible, in
   chain order. *)
let prop_candidates_match_classify =
  let gen =
    QCheck.Gen.(
      let interval =
        map2 (fun a b -> iv (min a b) (max a b + 1)) (int_bound 100) (int_bound 100)
      in
      pair (list_size (0 -- 10) interval) interval)
  in
  let arb =
    QCheck.make gen ~print:(fun (vs, s) ->
        Printf.sprintf "versions=[%s] snapshot=%s"
          (String.concat ";" (List.map Interval.to_string vs))
          (Interval.to_string s))
  in
  QCheck.Test.make ~name:"candidates = possibly-visible part of classify"
    ~count:500 arb
    (fun (commit_ivs, snapshot) ->
      let chain =
        List.mapi (fun i commit -> version ~txn:i ~value:i ~commit ()) commit_ivs
        |> List.sort (fun (a : Version_order.version) b ->
               Interval.compare_by_aft a.commit_iv b.commit_iv)
      in
      let expected =
        List.filter_map
          (fun (v, cls) ->
            match cls with
            | Candidate.Overlap | Pivot | Pivot_overlap -> Some v
            | Future | Garbage -> None)
          (Candidate.classify ~snapshot chain)
      in
      let got = Candidate.candidates ~snapshot chain in
      List.length got = List.length expected && List.for_all2 ( == ) got expected)

let suite =
  [
    Alcotest.test_case "Fig.6 classification" `Quick test_fig6_classification;
    Alcotest.test_case "candidate set minimal" `Quick test_candidates_minimal;
    Alcotest.test_case "no pivot case" `Quick test_no_pivot;
    Alcotest.test_case "single version" `Quick test_single_version;
    Alcotest.test_case "empty chain" `Quick test_empty_chain;
    Helpers.qtest prop_sampled_visible_is_candidate;
    Helpers.qtest prop_candidates_match_classify;
  ]

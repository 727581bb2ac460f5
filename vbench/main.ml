(* Verification benchmark: one command, three workloads, every metric
   printed by name with its unit.

     bash vbench/run.sh --workload blindw-rwplus-sr --seed 1 \
       --seconds 40 --trace 0

   --trace 0 measures the end-to-end metrics with no tracing.  --trace 1
   alternates untraced and traced reps and reports the per-layer split:
   spans recorded here, around each call into a library module (Span),
   never inside the library.  The last line of standard output is one
   JSON object with the keys correct, attempted, failed and metrics; the
   exit code is 0 only when every check passed.  README.md in this
   directory describes the workloads and every metric. *)

module Checker = Leopard.Checker
module Pipeline = Leopard.Pipeline
module Il_profile = Leopard.Il_profile
module Codec = Leopard_trace.Codec
module Ckpt = Leopard_trace.Ckpt
module Cell = Leopard_trace.Cell
module Trace = Leopard_trace.Trace
module Run = Leopard_harness.Run
module Rng = Leopard_util.Rng
module Stats = Leopard_util.Stats

(* ------------------------------------------------------------------ *)
(* Workloads *)

type offline = {
  spec : unit -> Leopard_workload.Spec.t;
  level : Minidb.Isolation.level;
  faults : Minidb.Fault.Set.t;
  txns : int;
}

(* [cells] cells updated round-robin under a seeded row permutation;
   a cut (truncate + encode + append) every [window] dispatched
   traces.  [window] is a multiple of the checker's 512-trace gc cadence
   and of the stream's 3 * [cells]-trace period, so every cut sees the
   same state and peak_live is exactly equal at every history length.
   With a window of 5_000 the peak still saturates, but creeps up by
   ~0.5% as longer runs sample more cut phases. *)
type soak = { cells : int; window : int; txns : int }

type shape = Offline of offline | Soak of soak

type workload = {
  name : string;
  il : Il_profile.t;
  clients : int;
  shape : shape;
  expect : Checker.report -> (unit, string) result;
}

let verdict_name (r : Checker.report) =
  match Checker.verdict r with
  | Checker.Verified -> "Verified"
  | Checker.Violation -> "Violation"
  | Checker.Inconclusive why -> "Inconclusive (" ^ why ^ ")"

let expect_verified (r : Checker.report) =
  match Checker.verdict r with
  | Checker.Verified -> Ok ()
  | Checker.Violation | Checker.Inconclusive _ ->
    Error ("expected Verified, got " ^ verdict_name r)

let bug_count (r : Checker.report) m =
  Option.value ~default:0 (List.assoc_opt m r.bugs_by_mechanism)

(* Lost updates planted by No_fuw must surface as FUW bugs and as
   nothing else. *)
let expect_fuw_only (r : Checker.report) =
  match Checker.verdict r with
  | Checker.Violation ->
    let others =
      List.fold_left
        (fun acc m -> acc + bug_count r m)
        0 Leopard.Bug.[ Cr; Me; Sc ]
    in
    if bug_count r Leopard.Bug.Fuw = 0 then Error "Violation without FUW bugs"
    else if others > 0 then
      Error (Printf.sprintf "%d non-FUW bugs besides the FUW ones" others)
    else Ok ()
  | Checker.Verified | Checker.Inconclusive _ ->
    Error ("expected Violation, got " ^ verdict_name r)

let workloads ~smoke =
  let size full small = if smoke then small else full in
  [
    {
      name = "blindw-rwplus-sr";
      il = Il_profile.postgresql_serializable;
      clients = 24;
      shape =
        Offline
          {
            spec = (fun () -> Leopard_workload.Blindw.(spec RW_plus));
            level = Minidb.Isolation.Serializable;
            faults = Minidb.Fault.Set.empty;
            txns = size 5_000 300;
          };
      expect = expect_verified;
    };
    {
      name = "smallbank-si-lostupdate";
      il = Il_profile.postgresql_si;
      clients = 24;
      shape =
        Offline
          {
            spec = (fun () -> Leopard_workload.Smallbank.spec ());
            level = Minidb.Isolation.Snapshot_isolation;
            faults = Minidb.Fault.Set.singleton Minidb.Fault.No_fuw;
            txns = size 10_000 1_500;
          };
      expect = expect_fuw_only;
    };
    {
      name = "soak-truncate-ckpt";
      il = Il_profile.postgresql_serializable;
      clients = 8;
      shape =
        Soak
          {
            cells = 64;
            window = size 4_608 1_536;
            txns = size 100_000 8_000;
          };
      expect = expect_verified;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Measurement helpers *)

let now_ns = Span.now_ns
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Process CPU time, user plus system, in seconds.  The end-to-end
   times are CPU times: the benchmark runs on one thread and never waits,
   so on an idle host they equal wall time, and on a busy one they leave
   out the time the scheduler gives to other processes.  Spans stay on
   the monotonic clock. *)
let cpu_now () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let cpu_since c0 = cpu_now () -. c0
let median xs = Stats.percentile xs 50.
let div a b = if b = 0. then 0. else a /. b
let idiv a b = div (float_of_int a) (float_of_int b)

let file_size path = (Unix.stat path).Unix.st_size

(* Checks: each failure is printed at once and fails its job. *)
let problems = ref []

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        prerr_endline ("vbench: check failed: " ^ msg);
        problems := msg :: !problems
      end)
    fmt

(* A job is one set-up sample, one verification pass or the final frame
   check; it fails when any check inside it failed. *)
let attempted = ref 0
let failed = ref 0

let job f =
  let before = List.length !problems in
  incr attempted;
  let r = f () in
  if List.length !problems > before then incr failed;
  r

(* Every count a report carries except the bug texts; reps of one run
   must agree on it exactly, traced or not. *)
let signature (r : Checker.report) =
  let d = r.degradation in
  String.concat " "
    (verdict_name r
    :: List.map string_of_int
         ([
            r.traces; r.committed; r.aborted; r.bugs_total; r.deps_deduced;
            r.reads_checked; r.peak_live; r.final_live; r.pruned_versions;
            r.pruned_locks; r.pruned_fuw; r.pruned_graph; r.truncations;
            r.truncated_deps; r.resolved_ambiguous; d.inconclusive_reads;
            d.dup_traces_dropped; d.unterminated_txns;
          ]
         @ List.map snd r.bugs_by_mechanism
         @ List.map snd r.deduced_by_source))

(* ------------------------------------------------------------------ *)
(* One verification pass *)

(* The timed region of one pass: wall time on the monotonic clock, CPU
   time, and allocation and GC work as Gc counter deltas. *)
type region = {
  verify_s : float;
  cpu_s : float;
  alloc_b : float;
  minor_gcs : int;
  major_gcs : int;
  promoted_w : float;
}

let timed_region ~traced f =
  let g0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let c0 = cpu_now () in
  let t0 = now_ns () in
  let v = if traced then Span.span Span.Rep f else f () in
  let verify_s = secs_since t0 in
  let cpu_s = cpu_since c0 in
  let alloc_b = Gc.allocated_bytes () -. a0 in
  let g1 = Gc.quick_stat () in
  ( v,
    {
      verify_s;
      cpu_s;
      alloc_b;
      minor_gcs = g1.minor_collections - g0.minor_collections;
      major_gcs = g1.major_collections - g0.major_collections;
      promoted_w = g1.promoted_words -. g0.promoted_words;
    } )

type rep = {
  traces : int;
  region : region;
  cuts : float list;  (** untraced reps: the rep's cut stalls *)
  pipe_peak : int;
  late : int;
  report : Checker.report;
  live_half : int;
      (** offline, traced reps: live state halfway through the feed;
          soak: the highest pre-cut live state in the first half *)
  live_end : int;
      (** offline: live state after the last feed; soak: the highest
          pre-cut live state in the second half *)
}

(* Cut stalls of the current untraced rep, in CPU seconds, and lines
   encoded per cut over the run. *)
let stalls = ref []
let encoded_lines = ref 0
let encodes = ref 0

let take_stalls () =
  let s = !stalls in
  stalls := [];
  s

(* Checker.feed, one span per call named after the trace kind.  Written
   out rather than through [Span.span] so the wrapper allocates no
   closure inside the pipeline's span. *)
let traced_feed checker tr =
  let kind =
    match tr.Trace.payload with
    | Trace.Read _ -> Span.Feed_read
    | Trace.Write _ -> Span.Feed_write
    | Trace.Commit -> Span.Feed_commit
    | Trace.Abort -> Span.Feed_abort
  in
  Span.enter kind;
  Checker.feed checker tr;
  Span.leave ()

let sp ~traced k f = if traced then Span.span k f else f ()

(* One checkpoint frame; [watermark] adds the truncation before it.
   Untraced cuts are timed as stalls. *)
let cut ~traced ~checker ~writer ?watermark () =
  let c0 = cpu_now () in
  Option.iter
    (fun watermark ->
      sp ~traced Span.Truncate (fun () -> Checker.truncate checker ~watermark))
    watermark;
  let lines = sp ~traced Span.Encode (fun () -> Checker.encode checker) in
  sp ~traced Span.Ckpt_append (fun () -> Ckpt.append writer lines);
  if not traced then begin
    stalls := cpu_since c0 :: !stalls;
    encoded_lines := !encoded_lines + List.length lines;
    incr encodes
  end

let split_clients clients traces =
  let streams = Array.make clients [] in
  List.iter
    (fun (tr : Trace.t) -> streams.(tr.client) <- tr :: streams.(tr.client))
    (List.rev traces);
  streams

(* Offline: Codec load -> per-client split -> Pipeline -> Checker ->
   report is the timed region.  One checkpoint frame of the final state
   follows, timed as a cut stall but outside the region. *)
let offline_pass w ~traced ~trace_path ~ckpt_path ~fingerprint =
  let sp k f = sp ~traced k f in
  let (total, n, pipe, checker, report, live_half, live_end), region =
    timed_region ~traced (fun () ->
        let contents =
          match
            sp Span.Codec_load (fun () -> Codec.load_all ~path:trace_path)
          with
          | Ok c -> c
          | Error e -> failwith ("cannot load the recorded history: " ^ e)
        in
        let streams =
          sp Span.Split (fun () -> split_clients w.clients contents.c_traces)
        in
        let total = List.length contents.c_traces in
        let pipe = sp Span.Pipe_build (fun () -> Pipeline.of_lists streams) in
        let checker = Checker.create w.il in
        let fed = ref 0 and live_half = ref 0 in
        let feed =
          if traced then (fun tr ->
            traced_feed checker tr;
            incr fed;
            if !fed = total / 2 then live_half := Checker.live_size checker)
          else Checker.feed checker
        in
        let n = sp Span.Pipe_drain (fun () -> Pipeline.drain pipe ~f:feed) in
        let live_end = Checker.live_size checker in
        sp Span.Finalize (fun () -> Checker.finalize checker);
        let report = sp Span.Report (fun () -> Checker.report checker) in
        (total, n, pipe, checker, report, !live_half, live_end))
  in
  check (n = total) "dispatched %d of %d loaded traces" n total;
  let writer =
    sp Span.Ckpt_writer (fun () -> Ckpt.writer ~path:ckpt_path ~fingerprint)
  in
  cut ~traced ~checker ~writer ();
  Ckpt.close writer;
  { traces = total; region; cuts = take_stalls ();
    pipe_peak = Pipeline.peak_memory pipe; late = Pipeline.late_dropped pipe;
    report; live_half; live_end }

(* The soak's synthetic, provably serializable stream, generated on
   pull: transaction i reads the value its cell holds (written by
   transaction i - cells), overwrites it with a unique value and
   commits, in intervals disjoint from every other transaction's.  The
   seed permutes the rows and offsets the values. *)
let soak_sources ~clients (s : soak) ~seed ~txns =
  let rng = Rng.create seed in
  let rows = Array.init s.cells Fun.id in
  Rng.shuffle rng rows;
  let base = Rng.int rng 1_000_000 * 1_000_000 in
  let next = Array.make clients 0 in
  let queues = Array.init clients (fun _ -> Queue.create ()) in
  let gen c =
    let i = (next.(c) * clients) + c in
    if i < txns then begin
      next.(c) <- next.(c) + 1;
      let cell = Cell.make ~table:0 ~row:rows.(i mod s.cells) ~col:0 in
      let t = i * 8 in
      let mk ts_bef payload =
        { Trace.ts_bef; ts_aft = ts_bef + 1; txn = i; client = c; payload }
      in
      if i >= s.cells then
        Queue.push
          (mk t
             (Trace.Read
                {
                  items = [ { Trace.cell; value = base + i - s.cells + 1 } ];
                  locking = false;
                }))
          queues.(c);
      Queue.push
        (mk (t + 2) (Trace.Write [ { Trace.cell; value = base + i + 1 } ]))
        queues.(c);
      Queue.push (mk (t + 4) Trace.Commit) queues.(c)
    end
  in
  let pull c =
    if Queue.is_empty queues.(c) then gen c;
    match Queue.take_opt queues.(c) with
    | Some tr -> Pipeline.Item tr
    | None -> Pipeline.Closed
  in
  Array.init clients (fun c () -> pull c)

(* Soak: generator sources -> Pipeline -> Checker, cutting every
   [window] dispatched traces at the pipeline watermark, then a final
   frame after finalize, as [Online.run ?gc_watermark ?checkpoint]
   does.  The cuts are part of the timed region. *)
let soak_pass w (s : soak) ~traced ~seed ~txns ~ckpt_path ~fingerprint =
  let sp k f = sp ~traced k f in
  let total = (3 * txns) - s.cells in
  let (n, pipe, report, live_half, live_end), region =
    timed_region ~traced (fun () ->
        let writer =
          sp Span.Ckpt_writer (fun () ->
              Ckpt.writer ~path:ckpt_path ~fingerprint)
        in
        let sources = soak_sources ~clients:w.clients s ~seed ~txns in
        let sources =
          if traced then
            Array.map (fun src () -> Span.span Span.Source src) sources
          else sources
        in
        let pipe = sp Span.Pipe_build (fun () -> Pipeline.create ~sources ()) in
        let checker = Checker.create w.il in
        let since = ref 0 in
        let feed =
          if traced then traced_feed checker else Checker.feed checker
        in
        (* live state peaks just before a cut: the highest such peak in
           each half of the stream *)
        let dispatched = ref 0 and live_half = ref 0 and live_end = ref 0 in
        let feed_and_cut tr =
          feed tr;
          incr since;
          if !since >= s.window then begin
            since := 0;
            dispatched := !dispatched + s.window;
            let live = Checker.live_size checker in
            if !dispatched <= total / 2 then live_half := max !live_half live
            else live_end := max !live_end live;
            let watermark =
              sp Span.Pipe_watermark (fun () -> Pipeline.watermark pipe)
            in
            if watermark < max_int then
              cut ~traced ~checker ~writer ~watermark ()
          end
        in
        let n =
          sp Span.Pipe_drain (fun () -> Pipeline.drain pipe ~f:feed_and_cut)
        in
        sp Span.Finalize (fun () -> Checker.finalize checker);
        let lines = sp Span.Encode (fun () -> Checker.encode checker) in
        sp Span.Ckpt_append (fun () -> Ckpt.append writer lines);
        let report = sp Span.Report (fun () -> Checker.report checker) in
        Ckpt.close writer;
        (n, pipe, report, !live_half, !live_end))
  in
  check (n = total) "dispatched %d of %d generated traces" n total;
  { traces = total; region; cuts = take_stalls ();
    pipe_peak = Pipeline.peak_memory pipe; late = Pipeline.late_dropped pipe;
    report; live_half; live_end }

let pass w ~traced ~seed ~trace_path ~ckpt_path ~fingerprint =
  match w.shape with
  | Offline _ -> offline_pass w ~traced ~trace_path ~ckpt_path ~fingerprint
  | Soak s -> soak_pass w s ~traced ~seed ~txns:s.txns ~ckpt_path ~fingerprint

(* ------------------------------------------------------------------ *)
(* Set-up *)

(* One set-up sample.  A run takes several, spread over its timed reps
   so they meet the same machine conditions; every sample must
   reproduce the first one's [identity]. *)
type setup = {
  setup_s : float;  (** CPU seconds, as are the next two *)
  run_s : float;  (** Run.execute + Run.all_traces_sorted *)
  save_s : float;  (** Codec.save *)
  run_alloc_b : float;
  run_traces : int;
  commit_ratio : float;
  retries : int;
  identity : string;
      (** offline: digest of the recorded history; soak: the warm-up
          report's signature *)
  warm_peak_live : int;  (** soak: peak_live of the quarter-length pass *)
}

(* Offline: simulate the history and record it with Codec.save. *)
let offline_setup w (o : offline) ~seed ~trace_path =
  let cfg =
    Run.config ~clients:w.clients ~seed ~faults:o.faults ~spec:(o.spec ())
      ~profile:Minidb.Profile.postgresql ~level:o.level
      ~stop:(Run.Txn_count o.txns) ()
  in
  let a0 = Gc.allocated_bytes () in
  let c0 = cpu_now () in
  let outcome = Run.execute cfg in
  let traces = Run.all_traces_sorted outcome in
  let run_s = cpu_since c0 in
  let run_alloc_b = Gc.allocated_bytes () -. a0 in
  let c1 = cpu_now () in
  Codec.save ~path:trace_path traces;
  let save_s = cpu_since c1 in
  {
    setup_s = run_s +. save_s;
    run_s;
    save_s;
    run_alloc_b;
    run_traces = List.length traces;
    commit_ratio = idiv outcome.commits (outcome.commits + outcome.aborts);
    retries = outcome.retries;
    identity = Digest.to_hex (Digest.file trace_path);
    warm_peak_live = 0;
  }

(* Soak: the monitor has no history to record; set-up is a warm-up pass
   over a quarter-length stream, whose cuts are not the timed reps'. *)
let soak_setup w (s : soak) ~seed ~ckpt_path ~fingerprint =
  let saved = (!encoded_lines, !encodes) in
  let c0 = cpu_now () in
  let r =
    soak_pass w s ~traced:false ~seed ~txns:(s.txns / 4) ~ckpt_path ~fingerprint
  in
  let setup_s = cpu_since c0 in
  let el, en = saved in
  encoded_lines := el;
  encodes := en;
  (match w.expect r.report with
  | Ok () -> ()
  | Error e -> check false "warm-up pass: %s" e);
  {
    setup_s;
    run_s = 0.;
    save_s = 0.;
    run_alloc_b = 0.;
    run_traces = 0;
    commit_ratio = 0.;
    retries = 0;
    identity = signature r.report;
    warm_peak_live = r.report.peak_live;
  }

(* ------------------------------------------------------------------ *)
(* The last checkpoint frame must load under the run's fingerprint,
   decode, and re-encode to itself. *)

let frame_check w ~ckpt_path ~fingerprint =
  let t0 = now_ns () in
  let frame, warning = Ckpt.load ~path:ckpt_path ~fingerprint in
  let load_s = secs_since t0 in
  check (Option.is_none warning) "checkpoint load warned: %s"
    (Option.value ~default:"" warning);
  match frame with
  | None ->
    check false "no checkpoint frame survived in %s" ckpt_path;
    (load_s, 0.)
  | Some lines -> (
    let t1 = now_ns () in
    let decoded = Checker.decode w.il lines in
    let decode_s = secs_since t1 in
    match decoded with
    | Error e ->
      check false "last checkpoint frame does not decode: %s" e;
      (load_s, decode_s)
    | Ok c ->
      check
        (List.equal String.equal (Checker.encode c) lines)
        "re-encoding the decoded last frame does not reproduce it";
      (load_s, decode_s))

(* ------------------------------------------------------------------ *)
(* Output *)

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result () =
  let ms = List.rev !metrics in
  List.iter
    (fun (name, v, unit) ->
      Printf.printf "  %-38s %16s %s\n" name (json_number v) unit)
    ms;
  List.iter
    (fun (name, v, _) ->
      check (Float.is_finite v) "metric %s is not a finite number" name)
    ms;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number (if Float.is_finite v then v else 0.))
             unit)
         ms)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n\
     %!"
    (!problems = []) !attempted !failed body

(* ------------------------------------------------------------------ *)
(* Driver *)

let run w ~seed ~seconds ~traced_mode ~smoke ~out =
  let trace_path = Filename.concat out (w.name ^ ".trace") in
  let ckpt_path = Filename.concat out (w.name ^ ".ckpt") in
  let fingerprint =
    Ckpt.fingerprint
      [ "vbench"; w.name; w.il.Il_profile.name; string_of_int seed ]
  in
  let times = if smoke then 1 else 5 in
  let setup_once () =
    job (fun () ->
        Gc.full_major ();
        match w.shape with
        | Offline o -> offline_setup w o ~seed ~trace_path
        | Soak s -> soak_setup w s ~seed ~ckpt_path ~fingerprint)
  in
  let setup = setup_once () in
  let setups = ref [ setup ] in
  let another_setup () =
    let s = setup_once () in
    check
      (String.equal s.identity setup.identity)
      "set-up is not deterministic: [%s] then [%s]" setup.identity s.identity;
    setups := s :: !setups
  in
  (* Reps until [seconds] have passed; with tracing, untraced and traced
     reps alternate so both see the same machine conditions.  The other
     set-up samples are spread evenly over the same period. *)
  let min_reps = if traced_mode then 4 else 3 in
  let reps = ref [] in
  let heap_top_words = ref 0 in
  let first_sig = ref None in
  let t0 = now_ns () in
  let i = ref 0 in
  while !i < min_reps || ((not smoke) && secs_since t0 < seconds) do
    let due = float_of_int (List.length !setups) /. float_of_int times in
    if List.length !setups < times && secs_since t0 >= seconds *. due then
      another_setup ();
    let traced = traced_mode && !i mod 2 = 1 in
    (* every rep starts from a collected heap, so no rep pays for the
       previous one's garbage *)
    Gc.full_major ();
    if traced then Span.start_rep !i;
    let r =
      job (fun () ->
          let r =
            pass w ~traced ~seed ~trace_path ~ckpt_path ~fingerprint
          in
          (match w.expect r.report with
          | Ok () -> ()
          | Error e -> check false "rep %d: %s" !i e);
          check (r.late = 0) "rep %d: the pipeline dropped %d late traces" !i
            r.late;
          check (r.report.traces = r.traces)
            "rep %d: the checker saw %d of %d traces" !i r.report.traces
            r.traces;
          let s = signature r.report in
          (match !first_sig with
          | None -> first_sig := Some s
          | Some s0 ->
            check (String.equal s s0)
              "rep %d (%s) disagrees with rep 0: [%s] vs [%s]" !i
              (if traced then "traced" else "untraced")
              s s0);
          (match w.shape with
          | Soak _ ->
            check
              (r.report.peak_live = setup.warm_peak_live)
              "rep %d: peak_live %d at full length, %d at quarter length" !i
              r.report.peak_live setup.warm_peak_live
          | Offline _ -> ());
          r)
    in
    if traced then Span.fold ();
    Printf.printf "rep %2d %-8s %8.3f s wall %8.3f s cpu %12.0f traces/cpu-s\n%!"
      !i
      (if traced then "traced" else "untraced")
      r.region.verify_s r.region.cpu_s
      (float_of_int r.traces /. r.region.cpu_s);
    (* the heap's high-water mark after one set-up and one pass; later
       steps only add what the GC's timing leaves behind *)
    if !i = 0 then heap_top_words := (Gc.quick_stat ()).top_heap_words;
    reps := (traced, r) :: !reps;
    incr i
  done;
  while List.length !setups < times do
    another_setup ()
  done;
  let setup_med f = median (List.map f !setups) in
  let reps = List.rev !reps in
  let traced, untraced = List.partition fst reps in
  let traced = List.map snd traced and untraced = List.map snd untraced in
  if traced_mode then
    Span.write ~path:(Filename.concat out (w.name ^ ".spans.tsv"));
  let load_s, decode_s =
    job (fun () -> frame_check w ~ckpt_path ~fingerprint)
  in
  let last = List.nth untraced (List.length untraced - 1) in
  let rate r = float_of_int r.traces /. r.region.cpu_s in
  let med f rs = median (List.map f rs) in
  if not traced_mode then begin
    let stall_ms =
      List.concat_map (fun r -> List.map (fun s -> s *. 1e3) r.cuts) untraced
    in
    Printf.printf "timing from %d untraced reps, %d cuts\n"
      (List.length untraced) (List.length stall_ms);
    metric "verify_traces_per_s" "1/s" (med rate untraced);
    metric "verify_alloc_b_per_trace" "B"
      (med (fun r -> r.region.alloc_b /. float_of_int r.traces) untraced);
    metric "peak_live" "count" (float_of_int last.report.peak_live);
    metric "pipeline_peak" "count" (float_of_int last.pipe_peak);
    metric "heap_top_mb" "MB"
      (float_of_int (!heap_top_words * (Sys.word_size / 8)) /. 1e6);
    metric "setup_s" "s" (setup_med (fun s -> s.setup_s));
    metric "ok_share" "ratio" (idiv (!attempted - !failed) !attempted);
    metric "cut_stall_p50_ms" "ms" (Stats.percentile stall_ms 50.);
    metric "cut_stall_p90_ms" "ms" (Stats.percentile stall_ms 90.)
  end
  else begin
    let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs in
    let traces rs = sum (fun r -> float_of_int r.traces) rs in
    let n = traces traced and un = traces untraced in
    let us_per_trace ks = div (sum Span.self_s ks) n *. 1e6 in
    let b_per_trace ks = div (sum Span.self_bytes ks) n in
    let ms_per_call k =
      div (Span.self_s k) (float_of_int (Span.calls_of k)) *. 1e3
    in
    let us_per_call k = ms_per_call k *. 1e3 in
    let pct ks = div (sum Span.region_s ks) (Span.incl_s Span.Rep) *. 100. in
    let feeds = Span.[ Feed_read; Feed_write; Feed_commit; Feed_abort ] in
    let pipeline = Span.[ Pipe_build; Pipe_drain; Pipe_watermark ] in
    let r = last.report in
    let count name v = metric name "count" (float_of_int v) in
    (* Run *)
    metric "run.execute_s" "s" (setup_med (fun s -> s.run_s));
    metric "run.alloc_b_per_trace" "B"
      (div setup.run_alloc_b (float_of_int setup.run_traces));
    count "run.traces" setup.run_traces;
    metric "run.commit_ratio" "ratio" setup.commit_ratio;
    count "run.retries" setup.retries;
    (* Codec *)
    metric "codec.save_s" "s" (setup_med (fun s -> s.save_s));
    metric "codec.load_us_per_trace" "us" (us_per_trace Span.[ Codec_load ]);
    metric "codec.load_alloc_b_per_trace" "B" (b_per_trace Span.[ Codec_load ]);
    metric "codec.file_b_per_trace" "B"
      (match w.shape with
      | Offline _ -> idiv (file_size trace_path) setup.run_traces
      | Soak _ -> 0.);
    (* Pipeline *)
    metric "pipeline.self_us_per_trace" "us" (us_per_trace pipeline);
    metric "pipeline.alloc_b_per_trace" "B" (b_per_trace pipeline);
    count "pipeline.late_dropped"
      (List.fold_left (fun acc (_, r) -> acc + r.late) 0 reps);
    metric "pipeline.source_us_per_trace" "us"
      (us_per_trace Span.[ Split; Source ]);
    (* Checker feed *)
    metric "checker.feed_us_per_trace" "us" (us_per_trace feeds);
    metric "checker.feed_alloc_b_per_trace" "B" (b_per_trace feeds);
    metric "checker.feed_read_us" "us" (us_per_call Span.Feed_read);
    metric "checker.feed_write_us" "us" (us_per_call Span.Feed_write);
    metric "checker.feed_commit_us" "us" (us_per_call Span.Feed_commit);
    metric "checker.feed_abort_us" "us" (us_per_call Span.Feed_abort);
    metric "checker.finalize_ms" "ms" (ms_per_call Span.Finalize);
    metric "checker.report_ms" "ms" (ms_per_call Span.Report);
    (* Checker counts *)
    count "checker.reads_checked" r.reads_checked;
    metric "checker.read_inconclusive_ratio" "ratio"
      (idiv r.degradation.inconclusive_reads r.reads_checked);
    List.iter
      (fun src ->
        let key =
          match src with
          | Leopard.Dep.Direct -> "direct"
          | Leopard.Dep.From_cr -> "cr"
          | Leopard.Dep.From_me -> "me"
          | Leopard.Dep.From_fuw -> "fuw"
          | Leopard.Dep.From_version_order -> "version_order"
          | Leopard.Dep.Derived_rw -> "derived_rw"
        in
        count ("checker.deps." ^ key)
          (Option.value ~default:0 (List.assoc_opt src r.deduced_by_source)))
      Leopard.Dep.all_sources;
    count "checker.bugs.cr" (bug_count r Leopard.Bug.Cr);
    count "checker.bugs.me" (bug_count r Leopard.Bug.Me);
    count "checker.bugs.fuw" (bug_count r Leopard.Bug.Fuw);
    count "checker.bugs.sc" (bug_count r Leopard.Bug.Sc);
    count "checker.pruned_versions" r.pruned_versions;
    count "checker.pruned_locks" r.pruned_locks;
    count "checker.pruned_fuw" r.pruned_fuw;
    count "checker.pruned_graph" r.pruned_graph;
    count "checker.final_live" r.final_live;
    metric "checker.live_growth" "ratio"
      (med (fun r -> idiv r.live_end r.live_half) traced);
    (* Truncate and checkpoint *)
    metric "checker.truncate_ms_per_cut" "ms" (ms_per_call Span.Truncate);
    count "checker.truncations" r.truncations;
    count "checker.truncated_deps" r.truncated_deps;
    metric "checker.encode_ms_per_cut" "ms" (ms_per_call Span.Encode);
    metric "checker.encode_lines_per_cut" "count"
      (idiv !encoded_lines !encodes);
    metric "ckpt.append_ms_per_cut" "ms" (ms_per_call Span.Ckpt_append);
    metric "ckpt.file_b" "B" (float_of_int (file_size ckpt_path));
    metric "ckpt.load_ms" "ms" (load_s *. 1e3);
    metric "checker.decode_ms" "ms" (decode_s *. 1e3);
    (* GC, over the untraced reps *)
    let per_untraced f = div (sum f untraced) un in
    metric "gc.minor_collections_per_ktrace" "count"
      (per_untraced (fun r -> float_of_int r.region.minor_gcs) *. 1e3);
    metric "gc.major_collections_per_ktrace" "count"
      (per_untraced (fun r -> float_of_int r.region.major_gcs) *. 1e3);
    metric "gc.promoted_b_per_trace" "B"
      (per_untraced (fun r -> r.region.promoted_w)
      *. float_of_int (Sys.word_size / 8));
    (* Shares of the traced timed region *)
    metric "share.codec_pct" "%" (pct Span.[ Codec_load ]);
    metric "share.pipeline_pct" "%" (pct pipeline);
    metric "share.source_pct" "%" (pct Span.[ Split; Source ]);
    metric "share.feed_pct" "%" (pct feeds);
    metric "share.finalize_pct" "%" (pct Span.[ Finalize; Report ]);
    metric "share.cut_pct" "%"
      (pct Span.[ Truncate; Encode; Ckpt_writer; Ckpt_append ]);
    metric "trace.remainder_pct" "%" (pct Span.[ Rep ]);
    metric "trace.overhead_pct" "%"
      ((div (med rate untraced) (med rate traced) -. 1.) *. 100.)
  end;
  print_result ();
  !problems = []

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and smoke = ref false and out = ref ".vbench_out" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S time spent in reps (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--smoke", Arg.Set smoke, " tiny inputs and the minimum number of reps");
      ("--out", Arg.Set_string out, "DIR scratch files (default .vbench_out)");
    ]
  in
  let usage =
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let all = workloads ~smoke:!smoke in
  match List.find_opt (fun w -> String.equal w.name !workload) all with
  | None ->
    Printf.eprintf "vbench: unknown workload %S; one of: %s\n" !workload
      (String.concat ", " (List.map (fun w -> w.name) all));
    exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
    prerr_endline "vbench: --trace takes 0 or 1";
    exit 2
  | Some w ->
    if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
    Printf.printf "workload %s  seed %d  seconds %g  trace %d%s\n%!" w.name
      !seed !seconds !trace
      (if !smoke then "  (smoke)" else "");
    let ok =
      run w ~seed:!seed ~seconds:!seconds ~traced_mode:(!trace = 1)
        ~smoke:!smoke ~out:!out
    in
    exit (if ok then 0 else 1)

(** Live (online) verification — Leopard attached while the workload runs.

    The paper's deployment mode: the Tracer continuously collects traces
    from running clients and batches them into the two-level pipeline
    (§VI-C batches every 0.5 s); the Verifier consumes whatever the
    watermark proves dispatchable and keeps pace with the DBMS.

    [run] wires a {!Leopard.Checker} to a workload execution through the
    streaming pipeline: every trace enters a per-client queue the moment
    the client logs it, and on every simulated batch window the pipeline
    dispatches what is safe into the checker.  Because clients are still
    running, a queue can be momentarily empty; the pipeline's watermark
    then relies on each client's last-seen timestamp, so dispatch order
    (Theorem 1) still holds — the same verification verdicts as an
    offline pass over the full sorted history, which the tests assert. *)

type result = {
  outcome : Run.outcome;
  report : Leopard.Checker.report;
  verify_wall_s : float;  (** wall time spent inside verification calls *)
  rounds : int;  (** batch windows processed *)
  max_lag : int;  (** peak produced-but-not-yet-verified traces *)
  final_lag : int;
      (** traces produced but never verified, measured {e after} the
          final drain: exactly [late_dropped + stranded].  0 means the
          verifier saw every produced trace; non-zero is degradation the
          report already accounts for, never silent loss.  (Earlier
          versions sampled this before the final drain, so a healthy run
          showed a spurious backlog and a crashed source's stranded
          traces were invisible.) *)
  stranded : int;
      (** traces still queued behind a source the pipeline closed as
          crashed — produced, never dispatched, counted into the
          checker as lost ([Checker.note_lost_traces]). *)
}

val run :
  ?batch_window_ns:int ->
  ?gc_every:int ->
  ?max_stall_ns:int ->
  ?gc_watermark:int ->
  ?checkpoint:string ->
  il:Leopard.Il_profile.t ->
  Run.config ->
  result
(** [batch_window_ns] defaults to 500_000 ns of simulated time (the
    paper's 0.5 s scaled to simulator latencies).  The config's
    [observer] and [tick] hooks are taken over by the monitor.

    When the config carries a {!Chaos.t}, the monitor degrades
    gracefully instead of wedging: a crashed client's source reports
    {!Leopard.Pipeline.Closed_crashed} (its stream has definitively
    ended), its in-flight transaction is marked
    {!Leopard.Checker.mark}[ ~channel:Crashed] before the next dispatch
    (wire give-ups likewise get [~channel:Ambiguous]), and
    collection losses are recorded on the checker so the report's
    verdict comes out [Inconclusive] rather than a false [Verified] or
    a spurious violation.  [max_stall_ns] (simulated time, measured in
    whole batch windows) additionally bounds how long an empty-but-live
    source may pin the watermark — the liveness backstop when no crash
    signal is available.

    {b Bounded memory.}  [gc_watermark] (default: off) turns the
    monitor into a truncating one: every time that many traces have
    been dispatched since the last cut, the checker is truncated at the
    pipeline watermark ({!Leopard.Checker.truncate}), so
    [report.peak_live] stays O(window) instead of O(history) no matter
    how long the workload runs.  Verdicts are unchanged — truncation
    only forgets state the watermark proves settled.

    [checkpoint] (requires [gc_watermark], else [Invalid_argument])
    names a file that receives a full checker snapshot frame
    ({!Leopard.Checker.encode} via {!Leopard_trace.Ckpt}) after each
    truncation and once more after finalize.  The file makes the
    monitor's progress durable for post-mortem inspection and
    crash-tolerance drills; live in-process resume is not supported —
    the restartable path is the CLI's offline [--resume-check], which
    re-reads the trace file from a checkpointed cursor. *)

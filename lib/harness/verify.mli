(** Offline verification of a completed run in one reusable entry point.

    Every consumer of {!Run.execute} that verifies afterwards (the CLI's
    offline path, the bench harness, campaign cells on worker domains)
    must feed the checker the same things: restart epochs, wire- and
    replication-ambiguous commits, coordinator-orphaned rounds and
    failover marks, all before the traces go through the two-level
    pipeline.  Centralizing the feed here keeps a future channel from
    being wired into one caller and silently skipped in another.

    The function is self-contained per call — it allocates its own
    checker and pipeline and touches no global state — so it is safe to
    call concurrently from multiple domains, which is what the campaign
    orchestrator does. *)

type result = {
  report : Leopard.Checker.report;
  pipeline_peak : int;  (** {!Leopard.Pipeline.peak_memory} of the drain *)
}

val offline : ?gc_every:int -> il:Leopard.Il_profile.t -> Run.outcome -> result

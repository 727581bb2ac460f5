module Trace = Leopard_trace.Trace

type result = {
  outcome : Run.outcome;
  report : Leopard.Checker.report;
  verify_wall_s : float;
  rounds : int;
  max_lag : int;
  final_lag : int;
  stranded : int;
}

let run ?(batch_window_ns = 500_000) ?(gc_every = 512) ?max_stall_ns
    ?gc_watermark ?checkpoint ~il (cfg : Run.config) =
  (match (checkpoint, gc_watermark) with
  | Some _, None ->
    (* A checkpoint frame is written after each truncation; without a
       truncation cadence the file would stay empty forever. *)
    invalid_arg "Online.run: checkpoint requires gc_watermark"
  | _ -> ());
  let queues = Array.init cfg.Run.clients (fun _ -> Queue.create ()) in
  let workload_done = ref false in
  let produced = ref 0 in
  let rounds = ref 0 in
  let chaos = cfg.Run.chaos in
  let sources =
    Array.mapi
      (fun client queue () ->
        match Queue.take_opt queue with
        | Some trace -> Leopard.Pipeline.Item trace
        | None ->
          if !workload_done then Leopard.Pipeline.Closed
          else begin
            match chaos with
            | Some ch when Chaos.is_crashed ch ~client ->
              (* the client is dead: its stream has definitively ended,
                 so release the watermark instead of pinning it *)
              Leopard.Pipeline.Closed_crashed
            | Some _ | None -> Leopard.Pipeline.Pending
          end)
      queues
  in
  (* Deterministic monitor clock for the stall bound: batch window k of
     the tick runs at simulated instant k * batch_window_ns. *)
  let now () = !rounds * batch_window_ns in
  let pipeline = Leopard.Pipeline.create ?max_stall_ns ~now ~sources () in
  let checker = Leopard.Checker.create ~gc_every il in
  let verify_wall = ref 0.0 in
  let max_lag = ref 0 in
  let final_lag = ref 0 in
  (* Uncertainty marks must land before the traces they govern are fed:
     a crash at tick k is marked at tick k+1, ahead of any dispatch of
     post-crash timestamps.  Ambiguous commits from the wire (client gave
     up on a COMMIT without learning the outcome) are polled the same
     way — marks are idempotent, so re-marking every round is
     harmless. *)
  let mark_uncertain () =
    Option.iter
      (fun ch ->
        List.iter
          (fun txn ->
            Leopard.Checker.mark checker ~channel:Leopard.Checker.Crashed ~txn)
          (Chaos.indeterminate_txns ch))
      chaos;
    Option.iter
      (fun rt ->
        List.iter
          (fun (_client, txn, _at) ->
            Leopard.Checker.mark checker ~channel:Leopard.Checker.Ambiguous
              ~txn)
          (Run.net_ambiguous rt))
      cfg.Run.net
  in
  (* Loss accounting is incremental, not end-of-run: a read checked in
     round k must already know the collection lost traces in rounds < k,
     or the checker would flag a violation it cannot actually prove. *)
  let noted_lost = ref 0 in
  let noted_late = ref 0 in
  let sync_losses () =
    (match chaos with
    | Some ch ->
      let lost = Chaos.dropped ch in
      if lost > !noted_lost then begin
        Leopard.Checker.note_lost_traces checker (lost - !noted_lost);
        noted_lost := lost
      end
    | None -> ());
    let late = Leopard.Pipeline.late_dropped pipeline in
    if late > !noted_late then begin
      Leopard.Checker.note_late_dropped checker (late - !noted_late);
      noted_late := late
    end
  in
  (* Bounded-memory mode: once the watermark proves a prefix settled,
     truncate the checker down to its live window and persist a snapshot
     frame.  The cadence is by dispatched traces, not rounds, so idle
     batch windows do not churn checkpoints. *)
  let ckpt_writer =
    Option.map
      (fun path ->
        let fingerprint =
          Leopard_trace.Ckpt.fingerprint
            [
              "online"; il.Leopard.Il_profile.name; string_of_int gc_every;
              string_of_int (Option.value ~default:0 gc_watermark);
            ]
        in
        Leopard_trace.Ckpt.writer ~path ~fingerprint)
      checkpoint
  in
  let last_trunc = ref 0 in
  let maybe_truncate () =
    match gc_watermark with
    | None -> ()
    | Some every ->
      let d = Leopard.Pipeline.dispatched pipeline in
      if d - !last_trunc >= max 1 every then begin
        last_trunc := d;
        let w = Leopard.Pipeline.watermark pipeline in
        (* max_int = every source exhausted; the final drain below
           truncates at the horizon anyway, so skip the degenerate cut *)
        if w < max_int then begin
          Leopard.Checker.truncate checker ~watermark:w;
          Option.iter
            (fun wr ->
              Leopard_trace.Ckpt.append wr (Leopard.Checker.encode checker))
            ckpt_writer
        end
      end
  in
  let drain () =
    incr rounds;
    let lag = !produced - Leopard.Pipeline.dispatched pipeline in
    if lag > !max_lag then max_lag := lag;
    let t0 = Leopard_util.Clock.wall () in
    mark_uncertain ();
    sync_losses ();
    ignore (Leopard.Pipeline.drain pipeline ~f:(Leopard.Checker.feed checker));
    sync_losses ();
    maybe_truncate ();
    verify_wall := !verify_wall +. (Leopard_util.Clock.wall () -. t0)
  in
  let observer trace =
    incr produced;
    Queue.push trace queues.(trace.Trace.client)
  in
  let cfg =
    { cfg with Run.observer = Some observer; tick = Some (batch_window_ns, drain) }
  in
  let outcome = Run.execute cfg in
  (* the workload stopped: everything left is dispatchable *)
  workload_done := true;
  let t0 = Leopard_util.Clock.wall () in
  mark_uncertain ();
  sync_losses ();
  ignore (Leopard.Pipeline.drain pipeline ~f:(Leopard.Checker.feed checker));
  sync_losses ();
  (* Anything still queued belongs to a source the pipeline closed as
     crashed before the trace straggled in — lost to the verifier. *)
  let stranded = Array.fold_left (fun n q -> n + Queue.length q) 0 queues in
  if stranded > 0 then Leopard.Checker.note_lost_traces checker stranded;
  (* Honest residual-lag accounting (after the final drain): every
     produced trace is dispatched, dropped-late, or stranded behind a
     crashed source — nothing vanishes.  [final_lag] is what the
     verifier never saw; 0 exactly when collection was complete. *)
  final_lag := !produced - Leopard.Pipeline.dispatched pipeline;
  (* Crash–recovery epochs the run spanned: clean restarts keep the
     verdict intact, recovery damage degrades it. *)
  List.iter
    (fun (e : Run.epoch_mark) ->
      Leopard.Checker.note_restart checker ~at:e.Run.at
        ~replayed:e.Run.replayed ~damaged:e.Run.damaged)
    outcome.Run.epochs;
  (match chaos with
  | Some ch ->
    Leopard.Checker.note_crashed_clients checker
      (List.length (Chaos.crashed_clients ch))
  | None -> ());
  Leopard.Checker.finalize checker;
  (* Final frame after finalize so a post-run inspection sees the
     settled verdict, then the file is complete. *)
  Option.iter
    (fun wr ->
      Leopard_trace.Ckpt.append wr (Leopard.Checker.encode checker);
      Leopard_trace.Ckpt.close wr)
    ckpt_writer;
  verify_wall := !verify_wall +. (Leopard_util.Clock.wall () -. t0);
  {
    outcome;
    report = Leopard.Checker.report checker;
    verify_wall_s = !verify_wall;
    rounds = !rounds;
    max_lag = !max_lag;
    final_lag = !final_lag;
    stranded;
  }

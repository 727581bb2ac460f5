type result = {
  report : Leopard.Checker.report;
  pipeline_peak : int;
}

let offline ?gc_every ~il (outcome : Run.outcome) =
  let checker = Leopard.Checker.create ?gc_every il in
  let pipeline = Leopard.Pipeline.of_lists outcome.Run.client_traces in
  let mark channel =
    List.iter (fun (_client, txn, _at) ->
        Leopard.Checker.mark checker ~channel ~txn)
  in
  List.iter
    (fun (e : Run.epoch_mark) ->
      Leopard.Checker.note_restart checker ~at:e.at ~replayed:e.replayed
        ~damaged:e.damaged)
    outcome.Run.epochs;
  Option.iter
    (fun ns -> mark Leopard.Checker.Ambiguous ns.Run.ambiguous)
    outcome.Run.net;
  mark Leopard.Checker.Ambiguous outcome.Run.repl_ambiguous;
  mark Leopard.Checker.Coordinator outcome.Run.coord_ambiguous;
  List.iter
    (fun (m : Leopard_trace.Codec.leader_mark) ->
      Leopard.Checker.note_failover checker ~at:m.at ~epoch:m.epoch
        ~lost:m.lost)
    outcome.Run.leaders;
  ignore (Leopard.Pipeline.drain pipeline ~f:(Leopard.Checker.feed checker));
  Leopard.Checker.finalize checker;
  {
    report = Leopard.Checker.report checker;
    pipeline_peak = Leopard.Pipeline.peak_memory pipeline;
  }

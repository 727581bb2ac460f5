module Cell = Leopard_trace.Cell
module Trace = Leopard_trace.Trace
module Interval = Leopard_util.Interval

type status = Active | Committed | Aborted | Indeterminate

type vtxn = {
  vid : int;
  mutable first_iv : Interval.t option;
  mutable terminal_iv : Interval.t option;
  mutable vstatus : status;
  writes : (Trace.value * Interval.t) Cell.Tbl.t;  (* last write per cell *)
  mutable write_cells : Cell.t list;  (* first-write order, reversed *)
  mutable pending_deps : Dep.t list;
      (* deps waiting for this endpoint's terminal *)
}

type pending_read = {
  reader : int;
  read_iv : Interval.t;
  snapshot_iv : Interval.t;
  items : (Cell.t * Trace.value) list;
}

(* One read item whose observed value matches an unresolved indeterminate
   write, parked until the reader terminates: a *committed* reader proves
   the writer's commit took effect (outcome resolution), any other fate
   leaves the item inconclusive. *)
type await_entry = {
  a_cell : Cell.t;
  a_value : Trace.value;
  a_writer : int;
  a_read_iv : Interval.t;
  a_snapshot_iv : Interval.t;
}

type degradation = {
  crashed_clients : int;
  indeterminate_txns : int;
  dup_traces_dropped : int;
  late_traces_dropped : int;
  lost_traces : int;
  inconclusive_reads : int;
  unterminated_txns : int;
  restarts : int;
  recovery_lost_records : int;
  ambiguous_commits : int;
  failovers : int;
  lost_suffix_commits : int;
  coord_ambiguous_commits : int;
}

(* [restarts] and [failovers] are deliberately absent: a clean
   crash–recovery epoch loses nothing, and a failover whose survivor
   prefix covers the whole log loses nothing either, so multi-epoch
   traces with zero damage still earn a full [Verified].  Only actual
   losses degrade the verdict. *)
let degradation_free d =
  d.crashed_clients = 0 && d.indeterminate_txns = 0
  && d.dup_traces_dropped = 0 && d.late_traces_dropped = 0
  && d.lost_traces = 0 && d.inconclusive_reads = 0
  && d.unterminated_txns = 0 && d.recovery_lost_records = 0
  && d.ambiguous_commits = 0 && d.lost_suffix_commits = 0
  && d.coord_ambiguous_commits = 0

type report = {
  traces : int;
  committed : int;
  aborted : int;
  bugs_total : int;
  bugs : Bug.t list;
  bugs_by_mechanism : (Bug.mechanism * int) list;
  deps_deduced : int;
  deduced_by_source : (Dep.source * int) list;
  reads_checked : int;
  peak_live : int;
  final_live : int;
  pruned_versions : int;
  pruned_locks : int;
  pruned_fuw : int;
  pruned_graph : int;
  truncations : int;
  truncated_deps : int;
  resolved_ambiguous : int;
  degradation : degradation;
}

type verdict = Verified | Violation | Inconclusive of string

type channel = Crashed | Ambiguous | Coordinator | Lost

(* A marked transaction's uncertainty.  The crash flag stands apart
   from the fate because a net+chaos run can both crash a client and
   leave its commit ambiguous; the other channels compete for one fate,
   by the table in [marked]. *)
type fate = Ambiguous | Coordinator | Resolved | Lost
type uncertainty = { crashed : bool; fate : fate option }

let unmarked = { crashed = false; fate = None }

type t = {
  profile : Il_profile.t;
  gc_every : int;
  narrow_candidates : bool;
  relaxed_reads : bool;
  versions : Version_order.t;
  me : Me_verifier.t;
  fuw : Fuw_verifier.t;
  sc : Sc_verifier.t;
  log : Dep.Log.t;
  txns : (int, vtxn) Hashtbl.t;
  deferred : pending_read Leopard_util.Min_heap.t;
  initial_readers : int list ref Cell.Tbl.t;
      (* readers that observed a cell's untraced initial state before any
         version was known; resolved into rw edges when the cell's first
         version installs *)
  aborted_values : (Trace.value * int * int) list ref Cell.Tbl.t;
      (* (value, txn, terminal_aft) of aborted writes, kept only to
         classify violations as G1a aborted reads *)
  marks : (int, uncertainty) Hashtbl.t;
      (* txns whose commit outcome the trace stream cannot settle: until
         resolved they are excluded from ME/FUW/SC obligations, and
         reads matching their writes are inconclusive, not violations *)
  indeterminate_values : (Trace.value * int) list ref Cell.Tbl.t;
      (* (value, txn) of indeterminate writes; never pruned — a crashed
         commit may have installed them at any later point *)
  awaiting : (int, await_entry list ref) Hashtbl.t;
      (* reader txn -> read items parked on an unresolved writer *)
  dedup_seen : (int * int * int, Trace.t) Hashtbl.t;
      (* (client, txn, ts_bef) of traces at the current frontier, for
         dropping chaos-duplicated deliveries *)
  mutable dedup_ts : int;
  mutable frontier : int;
  mutable traces : int;
  mutable committed : int;
  mutable aborted : int;
  mutable bugs_total : int;
  mutable bugs : Bug.t list;  (* reversed; capped *)
  mutable reads_checked : int;
  mutable peak_live : int;
  mutable pruned_versions : int;
  mutable pruned_locks : int;
  mutable pruned_fuw : int;
  mutable pruned_graph : int;
  mutable dup_dropped : int;
  mutable inconclusive_reads : int;
  mutable ext_crashed_clients : int;
  mutable ext_late_dropped : int;
  mutable ext_lost : int;
  mutable ext_restarts : int;
  mutable ext_recovery_lost : int;
  mutable ext_failovers : int;
  mutable ext_lost_commits : int;
  mutable finalized : bool;
  mutable dep_hook : (Dep.t -> unit) option;
  mech_counts : (Bug.mechanism, int) Hashtbl.t;
  mutable truncations : int;
  mutable truncated_deps : int;
  forgotten_by_source : int array;
      (* Dep.source_rank-indexed tallies of log entries folded away by
         [truncate]; merged back into the report so truncated and
         untruncated runs agree on deps_deduced *)
}

let max_stored_bugs = 10_000

let create ?(gc_every = 512) ?(narrow_candidates = true)
    ?(relaxed_reads = false) profile =
  {
    profile;
    gc_every;
    narrow_candidates;
    relaxed_reads;
    versions = Version_order.create ();
    me = Me_verifier.create ();
    fuw = Fuw_verifier.create ();
    sc = Sc_verifier.create profile.Il_profile.check_sc;
    log = Dep.Log.create ();
    txns = Hashtbl.create 4096;
    initial_readers = Cell.Tbl.create 64;
    aborted_values = Cell.Tbl.create 64;
    marks = Hashtbl.create 8;
    indeterminate_values = Cell.Tbl.create 8;
    awaiting = Hashtbl.create 8;
    dedup_seen = Hashtbl.create 64;
    dedup_ts = min_int;
    deferred =
      Leopard_util.Min_heap.create ~compare:(fun a b ->
          Int.compare (Interval.aft a.read_iv) (Interval.aft b.read_iv));
    frontier = min_int;
    traces = 0;
    committed = 0;
    aborted = 0;
    bugs_total = 0;
    bugs = [];
    reads_checked = 0;
    peak_live = 0;
    pruned_versions = 0;
    pruned_locks = 0;
    pruned_fuw = 0;
    pruned_graph = 0;
    dup_dropped = 0;
    inconclusive_reads = 0;
    ext_crashed_clients = 0;
    ext_late_dropped = 0;
    ext_lost = 0;
    ext_restarts = 0;
    ext_recovery_lost = 0;
    ext_failovers = 0;
    ext_lost_commits = 0;
    finalized = false;
    dep_hook = None;
    mech_counts = Hashtbl.create 4;
    truncations = 0;
    truncated_deps = 0;
    forgotten_by_source = Array.make (List.length Dep.all_sources) 0;
  }

let set_dep_hook t f = t.dep_hook <- Some f

let uncertainty t id =
  Option.value ~default:unmarked (Hashtbl.find_opt t.marks id)

(* Whether a transaction's record starts out indeterminate: an open or
   lost fate, or a crash flag (which a promotion does not clear). *)
let unsettled u =
  u.crashed
  ||
  match u.fate with
  | Some (Ambiguous | Coordinator | Lost) -> true
  | Some Resolved | None -> false

let resolvable t id =
  match (uncertainty t id).fate with
  | Some (Ambiguous | Coordinator) -> true
  | Some (Resolved | Lost) | None -> false

let new_vtxn vid vstatus first_iv terminal_iv =
  {
    vid;
    first_iv;
    terminal_iv;
    vstatus;
    writes = Cell.Tbl.create 8;
    write_cells = [];
    pending_deps = [];
  }

let vtxn t id =
  match Hashtbl.find_opt t.txns id with
  | Some v -> v
  | None ->
    let status =
      if unsettled (uncertainty t id) then Indeterminate else Active
    in
    let v = new_vtxn id status None None in
    Hashtbl.replace t.txns id v;
    v

let status_of t id =
  match Hashtbl.find_opt t.txns id with
  | Some v -> v.vstatus
  | None -> Committed (* pruned transactions were terminal; treat as done *)

let report_bug t (bug : Bug.t) =
  t.bugs_total <- t.bugs_total + 1;
  Hashtbl.replace t.mech_counts bug.mechanism
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.mech_counts bug.mechanism));
  if t.bugs_total <= max_stored_bugs then t.bugs <- bug :: t.bugs

let live_size t =
  Version_order.live_versions t.versions
  + Me_verifier.live_entries t.me
  + Fuw_verifier.live_entries t.fuw
  + Sc_verifier.nodes t.sc + Sc_verifier.edges t.sc
  + Leopard_util.Min_heap.length t.deferred
  + Hashtbl.length t.txns
  + Dep.Log.count t.log

let sample_peak t =
  let live = live_size t in
  if live > t.peak_live then t.peak_live <- live

(* ------------------------------------------------------------------ *)
(* Dependency plumbing: log every deduction; forward to the certifier
   once both endpoints are committed. *)

let rec emit_dep t (d : Dep.t) =
  if d.from_txn <> d.to_txn then begin
    let fresh = Dep.Log.add t.log d in
    if fresh then begin
      (match t.dep_hook with Some f -> f d | None -> ());
      forward_dep t d
    end
  end

and forward_dep t (d : Dep.t) =
  match (status_of t d.from_txn, status_of t d.to_txn) with
  | Committed, Committed ->
    List.iter (report_bug t) (Sc_verifier.add_dep t.sc d)
  | Aborted, _ | _, Aborted -> ()
  | Indeterminate, _ | _, Indeterminate -> ()
  | Active, _ ->
    let v = vtxn t d.from_txn in
    v.pending_deps <- d :: v.pending_deps
  | _, Active ->
    let v = vtxn t d.to_txn in
    v.pending_deps <- d :: v.pending_deps

and flush_pending t v =
  let deps = v.pending_deps in
  v.pending_deps <- [];
  List.iter (forward_dep t) deps

(* ------------------------------------------------------------------ *)
(* Indeterminate transactions: a marked transaction (a crashed client's
   in-flight one, an unacknowledged or orphaned commit, a commit lost at
   failover) may or may not have committed in the timeline the traces
   describe, and the trace stream cannot tell.  Treating it as either
   outcome risks false alarms, so until resolved it carries no
   obligations: its ME locks are discarded unchecked (release instant
   unknown), it joins no FUW/SC state (never registered without a commit
   trace), pending deps touching it are dropped, and reads observing one
   of its written values are inconclusive rather than violations. *)

let register_indeterminate_value t cell value vid =
  let entries =
    match Cell.Tbl.find_opt t.indeterminate_values cell with
    | Some r -> r
    | None ->
      let r = ref [] in
      Cell.Tbl.add t.indeterminate_values cell r;
      r
  in
  if not (List.mem (value, vid) !entries) then
    entries := (value, vid) :: !entries

let make_indeterminate t (v : vtxn) =
  v.vstatus <- Indeterminate;
  v.pending_deps <- [];
  Me_verifier.discard t.me ~txn:v.vid;
  (* lint: allow hashtbl-order — one binding per cell and the cells are
     registered independently; visit order cannot be observed *)
  Cell.Tbl.iter
    (fun cell (value, _) -> register_indeterminate_value t cell value v.vid)
    v.writes

(* The precedence table, in one place.  [Crashed] only raises the flag.
   [Ambiguous] and [Coordinator] (COMMIT or PREPAREs sent, outcome never
   learned) claim a transaction that has no fate yet, so the first
   ambiguity channel owns it; outcome resolution ([promote_ambiguous])
   later moves either to [Resolved].  [Lost] — a commit on a failover's
   truncated suffix — overrides every fate and is never replaced: the
   surviving timeline provably lacks it, so a read observing its value
   (which may predate the failover) proves nothing about this
   timeline.  Apart from the tie between the two ambiguity channels,
   marks commute. *)
let marked u (channel : channel) =
  match (channel, u.fate) with
  | Crashed, _ -> { u with crashed = true }
  | Lost, _ -> { u with fate = Some Lost }
  | Ambiguous, None -> { u with fate = Some Ambiguous }
  | Coordinator, None -> { u with fate = Some Coordinator }
  | (Ambiguous | Coordinator), Some _ -> u

let mark t ~(channel : channel) ~txn =
  if channel = Lost then t.ext_lost_commits <- t.ext_lost_commits + 1;
  let before = uncertainty t txn in
  let after = marked before channel in
  if after <> before then begin
    Hashtbl.replace t.marks txn after;
    match Hashtbl.find_opt t.txns txn with
    | Some v when v.vstatus = Active -> make_indeterminate t v
    | Some _ | None -> ()
  end

let indeterminate_writer t cell value =
  match Cell.Tbl.find_opt t.indeterminate_values cell with
  | Some entries ->
    Option.map snd (List.find_opt (fun (v, _) -> v = value) !entries)
  | None -> None

(* ------------------------------------------------------------------ *)
(* CR verification of one deferred read (Algorithm 2, ConsistentRead) *)

(* The §V-A cooperation optimization: among candidates certainly installed
   before the snapshot (the pivot and its overlaps), a version with a
   deduced ww successor in the same group was certainly overwritten before
   the snapshot and cannot be visible. *)
let narrow t ~snapshot candidates =
  if not t.narrow_candidates then candidates
  else begin
    let before_snapshot (v : Version_order.version) =
      Interval.certainly_before v.commit_iv snapshot
    in
    let group = List.filter before_snapshot candidates in
    List.filter
      (fun (v : Version_order.version) ->
        (not (before_snapshot v))
        || not
             (List.exists
                (fun (w : Version_order.version) ->
                  w.vtxn <> v.vtxn && Dep.Log.mem t.log Dep.Ww v.vtxn w.vtxn)
                group))
      candidates
  end

let install_versions t (v : vtxn) ~commit_iv =
  List.iter
    (fun cell ->
      match Cell.Tbl.find_opt v.writes cell with
      | None -> ()
      | Some (value, write_iv) ->
        let version =
          {
            Version_order.value;
            vtxn = v.vid;
            write_iv;
            commit_iv;
            readers = [];
          }
        in
        let is_first = ref false in
        Version_order.install t.versions cell version
          ~predecessor:(fun pred ->
            match pred with
            | None -> is_first := true
            | Some (p : Version_order.version) ->
              if
                Interval.certainly_before p.commit_iv commit_iv
                && p.vtxn <> v.vid
              then
                emit_dep t
                  {
                    Dep.kind = Dep.Ww;
                    from_txn = p.vtxn;
                    to_txn = v.vid;
                    source = Dep.From_version_order;
                  };
              (* Fig. 9: readers matched to the predecessor antidepend on
                 the new direct successor. *)
              List.iter
                (fun reader ->
                  if reader <> v.vid then
                    emit_dep t
                      {
                        Dep.kind = Dep.Rw;
                        from_txn = reader;
                        to_txn = v.vid;
                        source = Dep.Derived_rw;
                      })
                p.readers)
          ~successor:(fun succ ->
            match succ with
            | None ->
              (* Appended at the tail.  If it is also the very first
                 version of the cell, readers of the untraced initial
                 state antidepend on it. *)
              if !is_first then begin
                match Cell.Tbl.find_opt t.initial_readers cell with
                | Some readers ->
                  List.iter
                    (fun reader ->
                      if reader <> v.vid then
                        emit_dep t
                          {
                            Dep.kind = Dep.Rw;
                            from_txn = reader;
                            to_txn = v.vid;
                            source = Dep.Derived_rw;
                          })
                    !readers;
                  Cell.Tbl.remove t.initial_readers cell
                | None -> ()
              end
            | Some (s : Version_order.version) ->
              if
                Interval.certainly_before commit_iv s.commit_iv
                && s.vtxn <> v.vid
              then
                emit_dep t
                  {
                    Dep.kind = Dep.Ww;
                    from_txn = v.vid;
                    to_txn = s.vtxn;
                    source = Dep.From_version_order;
                  }))
    (List.rev v.write_cells)

let rec check_read t (pr : pending_read) =
  t.reads_checked <- t.reads_checked + 1;
  List.iter (fun (cell, value) -> check_item t pr cell value) pr.items

and check_item t (pr : pending_read) cell value =
  let chain = Version_order.chain t.versions cell in
  match chain with
  | [] -> (
    match indeterminate_writer t cell value with
    | Some writer when resolvable t writer ->
      (* no committed version, but the value matches an unacknowledged
         commit's write: resolvable once the reader's fate is known *)
      defer_or_resolve t pr cell value writer
    | Some _ ->
      (* no committed version, but the value matches an indeterminate
         write: the crashed transaction may have committed it *)
      t.inconclusive_reads <- t.inconclusive_reads + 1
    | None ->
      (* Untraced cell so far: the read observed the initial state.  If
         a first version installs later, the reader antidepends on it. *)
      let readers =
        match Cell.Tbl.find_opt t.initial_readers cell with
        | Some r -> r
        | None ->
          let r = ref [] in
          Cell.Tbl.add t.initial_readers cell r;
          r
      in
      if not (List.mem pr.reader !readers) then
        readers := pr.reader :: !readers)
  | _ -> (
    let candidates =
      narrow t ~snapshot:pr.snapshot_iv
        (Candidate.candidates ~snapshot:pr.snapshot_iv chain)
    in
    let matches =
      List.filter
        (fun (v : Version_order.version) -> v.value = value)
        candidates
    in
    match matches with
    | [] -> (
      match indeterminate_writer t cell value with
      | Some writer when resolvable t writer ->
        defer_or_resolve t pr cell value writer
      | Some _ ->
        (* the value may stem from a crashed client's transaction
           whose commit outcome is unknown: neither a violation nor a
           pass can be concluded *)
        t.inconclusive_reads <- t.inconclusive_reads + 1
      | None ->
        if t.ext_lost > 0 || t.ext_late_dropped > 0 then
          (* the collection is known lossy: the observed value may stem
             from a write whose trace never reached the verifier, so a
             missing match is not evidence of a violation *)
          t.inconclusive_reads <- t.inconclusive_reads + 1
        else if Candidate.has_pivot ~snapshot:pr.snapshot_iv chain then begin
          (* classify: where did the impossible value come from? *)
          let classified =
            Candidate.classify ~snapshot:pr.snapshot_iv chain
          in
          let from_chain =
            List.find_opt
              (fun ((v : Version_order.version), _) -> v.value = value)
              classified
          in
          let anomaly =
            match from_chain with
            | Some (_, Candidate.Garbage) -> Anomaly.Stale_read
            | Some (_, Candidate.Future) -> Anomaly.Future_read
            | Some (_, (Candidate.Overlap | Candidate.Pivot
                       | Candidate.Pivot_overlap)) ->
              (* in the candidate region but excluded by ww narrowing *)
              Anomaly.Stale_read
            | None -> (
              match Cell.Tbl.find_opt t.aborted_values cell with
              | Some entries
                when List.exists (fun (v, _, _) -> v = value) !entries ->
                Anomaly.Aborted_read
              | Some _ | None -> Anomaly.Dirty_read)
          in
          report_bug t
            (Bug.make ~mechanism:Bug.Cr ~anomaly ~txns:[ pr.reader ] ~cell
               (Printf.sprintf
                  "read by txn %d observed value %d on %s, which matches \
                   no possibly-visible version (%d candidates, %d known \
                   versions)"
                  pr.reader value (Cell.to_string cell)
                  (List.length candidates) (List.length chain)))
        end
        else begin
          (* No pivot: the read observed the untraced initial state.
             When the oldest known version is certainly the first, it
             is the initial state's direct successor, so the read
             antidepends on its writer (Fig. 9 applied to the initial
             version).  No pivot also implies nothing was pruned for
             this cell, so the chain head is the genuine first
             version. *)
          match chain with
          | first :: rest
            when first.Version_order.vtxn <> pr.reader
                 && (match rest with
                    | [] -> true
                    | second :: _ ->
                      Interval.certainly_before first.Version_order.commit_iv
                        second.Version_order.commit_iv) ->
            emit_dep t
              {
                Dep.kind = Dep.Rw;
                from_txn = pr.reader;
                to_txn = first.Version_order.vtxn;
                source = Dep.Derived_rw;
              }
          | _ -> ()
        end)
    | [ v ] ->
      if v.vtxn <> pr.reader then begin
        emit_dep t
          {
            Dep.kind = Dep.Wr;
            from_txn = v.vtxn;
            to_txn = pr.reader;
            source = Dep.From_cr;
          };
        (* register for future rw derivation *)
        if not (List.mem pr.reader v.readers) then
          v.readers <- pr.reader :: v.readers;
        (* rw to an already-known direct successor *)
        let rec successor = function
          | a :: b :: rest ->
            if a == v then Some b else successor (b :: rest)
          | [ _ ] | [] -> None
        in
        match successor chain with
        | Some (s : Version_order.version) when s.vtxn <> pr.reader ->
          emit_dep t
            {
              Dep.kind = Dep.Rw;
              from_txn = pr.reader;
              to_txn = s.vtxn;
              source = Dep.Derived_rw;
            }
        | Some _ | None -> ()
      end
    | _ :: _ :: _ -> ()  (* ambiguous match: uncertain, no deduction *))

(* Outcome resolution (the wire layer's counterpart to Algorithm 2): a
   read item matching an unresolved ambiguous commit is settled by the
   {e reader's} fate.  A committed reader is proof the writer's commit
   took effect — the engine served the value to a transaction that went
   on to commit, which no engine at read-committed or above does for an
   unapplied write — so the writer is promoted and the item re-checked
   against the now-installed version.  Any other fate for the reader
   (aborted, itself indeterminate, never terminated) leaves the item
   inconclusive, exactly as PR 1's blanket exclusion would have. *)
and defer_or_resolve t (pr : pending_read) cell value writer =
  match status_of t pr.reader with
  | Committed ->
    if promote_ambiguous t writer ~observed_aft:(Interval.aft pr.read_iv) then
      check_item t pr cell value
    else t.inconclusive_reads <- t.inconclusive_reads + 1
  | Active ->
    let entries =
      match Hashtbl.find_opt t.awaiting pr.reader with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.replace t.awaiting pr.reader r;
        r
    in
    entries :=
      {
        a_cell = cell;
        a_value = value;
        a_writer = writer;
        a_read_iv = pr.read_iv;
        a_snapshot_iv = pr.snapshot_iv;
      }
      :: !entries
  | Aborted | Indeterminate ->
    t.inconclusive_reads <- t.inconclusive_reads + 1

(* Promote an ambiguous commit to definitely-committed.  The commit
   interval is deliberately wide — from the writer's first operation to
   the observing read's end — which only ever {e adds} visibility
   candidates downstream, so the promotion cannot manufacture a
   violation out of uncertainty.  ME and FUW obligations stay waived
   (their release/registration instants are unknowable), matching the
   conservative treatment of indeterminate transactions. *)
and promote_ambiguous t writer ~observed_aft =
  match Hashtbl.find_opt t.txns writer with
  | Some w when w.vstatus = Indeterminate && resolvable t writer ->
    (* lint: allow hashtbl-order — in-place per-key filter; no state
       crosses from one binding to the next *)
    Cell.Tbl.iter
      (fun _cell entries ->
        entries := List.filter (fun (_, id) -> id <> writer) !entries)
      t.indeterminate_values;
    Hashtbl.replace t.marks writer
      { (uncertainty t writer) with fate = Some Resolved };
    w.vstatus <- Committed;
    t.committed <- t.committed + 1;
    let bef =
      match w.first_iv with
      | Some f -> min (Interval.bef f) (observed_aft - 1)
      | None -> observed_aft - 1
    in
    let commit_iv = Interval.make ~bef ~aft:observed_aft in
    w.terminal_iv <- Some commit_iv;
    let first_iv = match w.first_iv with Some f -> f | None -> commit_iv in
    if t.profile.Il_profile.check_sc <> None then
      Sc_verifier.note_commit t.sc ~txn:w.vid ~first_iv ~terminal_iv:commit_iv;
    if t.profile.Il_profile.check_cr <> None then
      install_versions t w ~commit_iv;
    flush_pending t w;
    true
  | Some _ | None -> false

(* Settle the read items parked on ambiguous writers once their reader
   terminates.  Called from the terminal-trace handlers and finalize. *)
and resolve_awaiting t (v : vtxn) ~committed =
  match Hashtbl.find_opt t.awaiting v.vid with
  | None -> ()
  | Some entries ->
    Hashtbl.remove t.awaiting v.vid;
    List.iter
      (fun e ->
        if committed then begin
          let pr =
            {
              reader = v.vid;
              read_iv = e.a_read_iv;
              snapshot_iv = e.a_snapshot_iv;
              items = [];
            }
          in
          if resolvable t e.a_writer then begin
            if
              promote_ambiguous t e.a_writer
                ~observed_aft:(Interval.aft e.a_read_iv)
            then check_item t pr e.a_cell e.a_value
            else t.inconclusive_reads <- t.inconclusive_reads + 1
          end
          else
            (* already promoted by another reader: re-check against the
               installed version *)
            check_item t pr e.a_cell e.a_value
        end
        else if resolvable t e.a_writer then
          t.inconclusive_reads <- t.inconclusive_reads + 1)
      (List.rev !entries)

let flush_deferred t ~upto =
  let ready =
    Leopard_util.Min_heap.drain_while t.deferred (fun pr ->
        Interval.aft pr.read_iv <= upto)
  in
  List.iter (check_read t) ready

(* ------------------------------------------------------------------ *)
(* GC *)

let horizon t =
  let h =
    (* lint: allow hashtbl-order — min-fold; commutative and associative *)
    Hashtbl.fold
      (fun _ v acc ->
        match (v.vstatus, v.first_iv) with
        | Active, Some iv -> min acc (Interval.bef iv)
        | _ -> acc)
      t.txns t.frontier
  in
  (* Defensive: a deferred read normally belongs to an active transaction
     (its terminal trace cannot start before the read ends at a sequential
     client), but hostile histories can violate that; never prune past a
     queued read's snapshot. *)
  Leopard_util.Min_heap.fold
    (fun acc pr -> min acc (Interval.bef pr.snapshot_iv))
    h t.deferred

let prune_to t h =
  t.pruned_versions <-
    t.pruned_versions + Version_order.prune t.versions ~horizon:h;
  t.pruned_locks <- t.pruned_locks + Me_verifier.prune t.me ~horizon:h;
  t.pruned_fuw <- t.pruned_fuw + Fuw_verifier.prune t.fuw ~horizon:h;
  t.pruned_graph <- t.pruned_graph + Sc_verifier.gc t.sc ~frontier:h;
  (* lint: allow hashtbl-order — in-place per-key prune, keys independent *)
  Cell.Tbl.iter
    (fun _cell entries ->
      entries := List.filter (fun (_, _, aft) -> aft > h) !entries)
    t.aborted_values;
  (* prune terminated transaction records behind the horizon *)
  let victims =
    (* lint: allow hashtbl-order — collects a removal set; every victim is
       removed whatever the fold order *)
    Hashtbl.fold
      (fun id v acc ->
        match (v.vstatus, v.terminal_iv) with
        | (Committed | Aborted), Some iv when Interval.aft iv <= h ->
          id :: acc
        | _ -> acc)
      t.txns []
  in
  List.iter (Hashtbl.remove t.txns) victims

let run_gc t = prune_to t (horizon t)

(* ------------------------------------------------------------------ *)
(* Truncation: fold the verified prefix into the compact summary.

   [prune_to] already bounds the four mechanism mirrors, the deferred
   heap and the transaction table; the one genuinely unbounded structure
   left is the deduction log, whose entries are never removed because
   [emit_dep] uses it to deduplicate re-deductions and [narrow] queries
   ww edges between live chain versions.  Both uses only ever mention
   transactions that appear in some live structure: a dependency can be
   re-deduced only from live versions/readers/lock entries/FUW
   entries/initial readers, and [narrow] only asks about live chain
   versions.  So once a transaction has vanished from every live
   structure, its log entries can be folded into accumulated tallies
   and dropped, in one [Dep.Log.drop] pass against the set of retained
   ids; the summary keeps the counts (so reports agree with an
   untruncated run) while the memory is reclaimed. *)

let truncate t ~watermark =
  let h = min watermark (horizon t) in
  prune_to t h;
  let retained = Hashtbl.create 1024 in
  let keep id = Hashtbl.replace retained id () in
  (* lint: allow hashtbl-order — building a membership set; commutative *)
  Hashtbl.iter (fun id _ -> keep id) t.txns;
  List.iter keep (Version_order.referenced_txns t.versions);
  List.iter keep (Me_verifier.referenced_txns t.me);
  List.iter keep (Fuw_verifier.referenced_txns t.fuw);
  List.iter keep (Sc_verifier.referenced_txns t.sc);
  (* lint: allow hashtbl-order — building a membership set; commutative *)
  Cell.Tbl.iter (fun _ readers -> List.iter keep !readers) t.initial_readers;
  Leopard_util.Min_heap.fold (fun () pr -> keep pr.reader) () t.deferred;
  (* lint: allow hashtbl-order — building a membership set; commutative *)
  Hashtbl.iter
    (fun reader entries ->
      keep reader;
      List.iter (fun e -> keep e.a_writer) !entries)
    t.awaiting;
  (* marked transactions can still be promoted (outcome resolution) or
     re-queried; they stay in the uncertainty table of the summary *)
  (* lint: allow hashtbl-order — building a membership set; commutative *)
  Hashtbl.iter (fun id _ -> keep id) t.marks;
  (* lint: allow hashtbl-order — building a membership set; commutative *)
  Cell.Tbl.iter
    (fun _ entries -> List.iter (fun (_, id) -> keep id) !entries)
    t.indeterminate_values;
  Dep.Log.drop t.log ~keep:(Hashtbl.mem retained) (fun (d : Dep.t) ->
      t.truncated_deps <- t.truncated_deps + 1;
      let r = Dep.source_rank d.source in
      t.forgotten_by_source.(r) <- t.forgotten_by_source.(r) + 1);
  t.truncations <- t.truncations + 1

(* ------------------------------------------------------------------ *)
(* Trace handlers *)

let me_granule t (cell : Cell.t) =
  match t.profile.Il_profile.lock_granularity with
  | Il_profile.Row_locks -> Cell.row_key cell
  | Il_profile.Table_locks -> (cell.Cell.table, -1)

let me_on_pair t ~row ~(mine : Me_verifier.entry) ~(other : Me_verifier.entry)
    verdict =
  match verdict with
  | Me_verifier.Violation ->
    let anomaly =
      if mine.mode = Me_verifier.X && other.mode = Me_verifier.X then
        Anomaly.Dirty_write
      else Anomaly.Read_lock_violation
    in
    report_bug t
      (Bug.make ~mechanism:Bug.Me ~anomaly ~txns:[ mine.etxn; other.etxn ] ~row
         (Printf.sprintf
            "incompatible locks on row (t%d,r%d): transactions %d and %d \
             certainly held conflicting locks simultaneously"
            (fst row) (snd row) mine.etxn other.etxn))
  | Me_verifier.Ww (first, second) ->
    if status_of t first = Committed && status_of t second = Committed then
      emit_dep t
        {
          Dep.kind = Dep.Ww;
          from_txn = first;
          to_txn = second;
          source = Dep.From_me;
        }
  | Me_verifier.Unordered -> ()

let handle_read t (v : vtxn) trace items locking =
  let iv = Trace.interval trace in
  (* mutual exclusion entries *)
  let p = t.profile in
  let rows =
    List.sort_uniq Cell.compare_row_key
      (List.map (fun (i : Trace.item) -> me_granule t i.cell) items)
  in
  if p.Il_profile.check_me && v.vstatus <> Indeterminate then begin
    if locking && p.Il_profile.me_locking_reads then
      List.iter
        (fun row -> Me_verifier.acquire t.me ~row ~txn:v.vid Me_verifier.X ~iv)
        rows
    else if (not locking) && p.Il_profile.me_reads then
      List.iter
        (fun row -> Me_verifier.acquire t.me ~row ~txn:v.vid Me_verifier.S ~iv)
        rows
  end;
  match p.Il_profile.check_cr with
  | None -> ()
  | Some granularity ->
    let snapshot_iv =
      match granularity with
      | Il_profile.Stmt_snapshot ->
        if t.relaxed_reads then
          (* claim compatibility: any snapshot between transaction begin
             and this statement may have served the read *)
          match v.first_iv with
          | Some f -> Interval.make ~bef:(Interval.bef f) ~aft:(Interval.aft iv)
          | None -> iv
        else iv
      | Il_profile.Txn_snapshot -> (
        match v.first_iv with Some f -> f | None -> iv)
    in
    (* Case 1 of CR: an operation must see the transaction's own earlier
       writes.  Items on cells this transaction wrote must return the
       latest own value; other items go through candidate matching once
       the frontier passes the read. *)
    let deferred_items =
      List.filter_map
        (fun (i : Trace.item) ->
          match Cell.Tbl.find_opt v.writes i.cell with
          | Some (own_value, _) ->
            if i.value <> own_value then
              report_bug t
                (Bug.make ~mechanism:Bug.Cr ~anomaly:Anomaly.Intermediate_read
                   ~txns:[ v.vid ] ~cell:i.cell
                   (Printf.sprintf
                      "read by txn %d observed value %d on %s although the \
                       transaction's own latest write installed %d"
                      v.vid i.value (Cell.to_string i.cell) own_value));
            None
          | None -> Some (i.cell, i.value))
        items
    in
    if deferred_items <> [] then
      Leopard_util.Min_heap.push t.deferred
        {
          reader = v.vid;
          read_iv = iv;
          snapshot_iv;
          items = deferred_items;
        }

let handle_write t (v : vtxn) trace items =
  let iv = Trace.interval trace in
  let p = t.profile in
  List.iter
    (fun (i : Trace.item) ->
      if not (Cell.Tbl.mem v.writes i.cell) then
        v.write_cells <- i.cell :: v.write_cells;
      Cell.Tbl.replace v.writes i.cell (i.value, iv);
      if v.vstatus = Indeterminate then
        register_indeterminate_value t i.cell i.value v.vid)
    items;
  if p.Il_profile.check_me && v.vstatus <> Indeterminate then begin
    let rows =
      List.sort_uniq Cell.compare_row_key
        (List.map (fun (i : Trace.item) -> me_granule t i.cell) items)
    in
    List.iter
      (fun row -> Me_verifier.acquire t.me ~row ~txn:v.vid Me_verifier.X ~iv)
      rows
  end

let handle_commit t (v : vtxn) trace =
  let commit_iv = Trace.interval trace in
  v.terminal_iv <- Some commit_iv;
  v.vstatus <- Committed;
  t.committed <- t.committed + 1;
  let first_iv =
    match v.first_iv with Some f -> f | None -> commit_iv
  in
  if t.profile.Il_profile.check_sc <> None then
    Sc_verifier.note_commit t.sc ~txn:v.vid ~first_iv ~terminal_iv:commit_iv;
  (* lock releases + pair checks *)
  if t.profile.Il_profile.check_me then
    Me_verifier.release t.me ~txn:v.vid ~iv:commit_iv ~on_pair:(me_on_pair t);
  (* version installation (CR mirror) *)
  if t.profile.Il_profile.check_cr <> None then
    install_versions t v ~commit_iv;
  (* FUW registration and pair checks *)
  if t.profile.Il_profile.check_fuw && v.write_cells <> [] then begin
    let rows =
      List.sort_uniq Cell.compare_row_key (List.map Cell.row_key v.write_cells)
    in
    let entry =
      { Fuw_verifier.ftxn = v.vid; snapshot_iv = first_iv; commit_iv }
    in
    List.iter
      (fun row ->
        Fuw_verifier.register t.fuw ~row entry ~on_pair:(fun ~row ~other verdict ->
            match verdict with
            | Fuw_verifier.Violation ->
              report_bug t
                (Bug.make ~mechanism:Bug.Fuw ~anomaly:Anomaly.Lost_update
                   ~txns:[ other.ftxn; v.vid ] ~row
                   (Printf.sprintf
                      "first-updater-wins violated on row (t%d,r%d): \
                       concurrent transactions %d and %d both committed \
                       updates"
                      (fst row) (snd row) other.ftxn v.vid))
            | Fuw_verifier.Ww (first, second) ->
              if
                status_of t first = Committed
                && status_of t second = Committed
              then
                emit_dep t
                  {
                    Dep.kind = Dep.Ww;
                    from_txn = first;
                    to_txn = second;
                    source = Dep.From_fuw;
                  }
            | Fuw_verifier.Unordered -> ()))
      rows
  end;
  flush_pending t v;
  resolve_awaiting t v ~committed:true

let handle_abort t (v : vtxn) trace =
  let iv = Trace.interval trace in
  v.terminal_iv <- Some iv;
  v.vstatus <- Aborted;
  t.aborted <- t.aborted + 1;
  v.pending_deps <- [];
  (* lint: allow hashtbl-order — one binding per written cell, each moved
     to its own aborted-values entry; bindings never interact *)
  Cell.Tbl.iter
    (fun cell (value, _) ->
      let entries =
        match Cell.Tbl.find_opt t.aborted_values cell with
        | Some r -> r
        | None ->
          let r = ref [] in
          Cell.Tbl.add t.aborted_values cell r;
          r
      in
      entries := (value, v.vid, Interval.aft iv) :: !entries)
    v.writes;
  if t.profile.Il_profile.check_me then
    Me_verifier.release t.me ~txn:v.vid ~iv ~on_pair:(me_on_pair t);
  resolve_awaiting t v ~committed:false

(* ------------------------------------------------------------------ *)

(* Duplicate deliveries (chaos / retrying shippers) are deduped by
   (client, txn, ts_bef): a client issues at most one op at a given
   instant, so two structurally equal traces under that key are one
   delivery seen twice.  Keys are only retained while the frontier sits
   at their ts_bef — sorted dispatch guarantees any duplicate that was
   not dropped as late arrives within that window. *)
let duplicate_delivery t trace =
  if trace.Trace.ts_bef > t.dedup_ts then begin
    Hashtbl.reset t.dedup_seen;
    t.dedup_ts <- trace.Trace.ts_bef
  end;
  let key = (trace.Trace.client, trace.Trace.txn, trace.Trace.ts_bef) in
  match Hashtbl.find_opt t.dedup_seen key with
  | Some prev when prev = trace -> true
  | Some _ -> false (* same key, different op: not a duplicate *)
  | None ->
    Hashtbl.replace t.dedup_seen key trace;
    false

let rec feed t trace =
  if trace.Trace.ts_bef < t.frontier then
    invalid_arg
      (Printf.sprintf
         "Checker.feed: trace ts_bef %d is behind the frontier %d (traces \
          must be dispatched in sorted order)"
         trace.Trace.ts_bef t.frontier);
  if duplicate_delivery t trace then
    t.dup_dropped <- t.dup_dropped + 1
  else feed_fresh t trace

and feed_fresh t trace =
  t.frontier <- trace.Trace.ts_bef;
  t.traces <- t.traces + 1;
  (* Safe point: every version visible to these reads is installed. *)
  flush_deferred t ~upto:t.frontier;
  let v = vtxn t trace.Trace.txn in
  if v.first_iv = None then v.first_iv <- Some (Trace.interval trace);
  (match trace.Trace.payload with
  | Trace.Read { items; locking } -> handle_read t v trace items locking
  | Trace.Write items -> handle_write t v trace items
  | (Trace.Commit | Trace.Abort)
    when v.vstatus = Indeterminate
         || (uncertainty t trace.Trace.txn).fate = Some Resolved ->
    (* defensive: a terminal for a transaction already declared
       indeterminate (e.g. a late mark racing a delivered terminal) or
       already promoted by outcome resolution adds no obligations — the
       declaration wins *)
    ()
  | Trace.Commit -> handle_commit t v trace
  | Trace.Abort -> handle_abort t v trace);
  sample_peak t;
  if t.gc_every > 0 && t.traces mod t.gc_every = 0 then run_gc t

let feed_all t traces = List.iter (feed t) traces

let finalize t =
  flush_deferred t ~upto:max_int;
  (* the flush can grow live state past the last per-trace sample *)
  sample_peak t;
  t.frontier <- max_int;
  (* read items still parked on an ambiguous writer: their reader never
     terminated, so the writer stays unresolved and the items are
     inconclusive *)
  (* lint: allow hashtbl-order — counting into a counter; commutative *)
  Hashtbl.iter
    (fun _reader entries ->
      List.iter
        (fun e ->
          if resolvable t e.a_writer then
            t.inconclusive_reads <- t.inconclusive_reads + 1)
        !entries)
    t.awaiting;
  Hashtbl.reset t.awaiting;
  t.finalized <- true;
  if t.gc_every > 0 then run_gc t

let deduced t kind from_txn to_txn = Dep.Log.mem t.log kind from_txn to_txn

let note_crashed_clients t n =
  t.ext_crashed_clients <- t.ext_crashed_clients + n

let note_late_dropped t n = t.ext_late_dropped <- t.ext_late_dropped + n
let note_lost_traces t n = t.ext_lost <- t.ext_lost + n

(* Recovery damage is deliberately NOT funnelled into [note_lost_traces]:
   a lost trace weakens what the verifier may claim about unmatched reads
   (the missing write may simply be the lost trace), but a damaged WAL
   record is the server's own confession — real recoveries detect torn
   and missing records by CRC scan.  The traces themselves are all
   present, so a post-crash read contradicting them is a {e provable}
   violation, exactly what the durability faults plant. *)
let note_restart t ~at ~replayed ~damaged =
  if at < 0 || replayed < 0 || damaged < 0 then
    invalid_arg "Checker.note_restart: negative count";
  t.ext_restarts <- t.ext_restarts + 1;
  t.ext_recovery_lost <- t.ext_recovery_lost + damaged

(* The failover channel mirrors [note_restart]: the harness (or an [L]
   trace-file marker) declares a leader change and the log suffix the
   promotion truncated.  Call it {e before} feeding traces, so lost
   transactions enter the checker already indeterminate — their commit
   traces are then inert declarations rather than obligations.  An
   honest lossy failover degrades the verdict (Inconclusive, never a
   false Violation); a failover that {e hides} its lost suffix leaves
   the checker free to prove the disappearance as a definite CR
   violation. *)
let note_failover t ~at ~epoch ~lost =
  if at < 0 then invalid_arg "Checker.note_failover: negative timestamp";
  if epoch < 1 then invalid_arg "Checker.note_failover: epoch must be >= 1";
  t.ext_failovers <- t.ext_failovers + 1;
  List.iter (fun txn -> mark t ~channel:Lost ~txn) lost

let report t =
  let crashed, ambiguous, coordinator, resolved =
    (* lint: allow hashtbl-order — count-fold; commutative *)
    Hashtbl.fold
      (fun _ u (c, a, co, r) ->
        let c = if u.crashed then c + 1 else c in
        match u.fate with
        | Some Ambiguous -> (c, a + 1, co, r)
        | Some Coordinator -> (c, a, co + 1, r)
        | Some Resolved -> (c, a, co, r + 1)
        | Some Lost | None -> (c, a, co, r))
      t.marks (0, 0, 0, 0)
  in
  {
    traces = t.traces;
    committed = t.committed;
    aborted = t.aborted;
    bugs_total = t.bugs_total;
    bugs = List.rev t.bugs;
    bugs_by_mechanism =
      List.sort
        (fun (ma, _) (mb, _) -> Bug.compare_mechanism ma mb)
        (Hashtbl.fold (fun m n acc -> (m, n) :: acc) t.mech_counts []);
    deps_deduced = Dep.Log.count t.log + t.truncated_deps;
    deduced_by_source =
      List.filter_map
        (fun s ->
          let n =
            Dep.Log.by_source t.log s
            + t.forgotten_by_source.(Dep.source_rank s)
          in
          if n = 0 then None else Some (s, n))
        Dep.all_sources;
    reads_checked = t.reads_checked;
    peak_live = t.peak_live;
    final_live = live_size t;
    pruned_versions = t.pruned_versions;
    pruned_locks = t.pruned_locks;
    pruned_fuw = t.pruned_fuw;
    pruned_graph = t.pruned_graph;
    truncations = t.truncations;
    truncated_deps = t.truncated_deps;
    resolved_ambiguous = resolved;
    degradation =
      {
        crashed_clients = t.ext_crashed_clients;
        indeterminate_txns = crashed;
        dup_traces_dropped = t.dup_dropped;
        late_traces_dropped = t.ext_late_dropped;
        lost_traces = t.ext_lost;
        inconclusive_reads = t.inconclusive_reads;
        unterminated_txns =
          (* only meaningful once the stream ended: mid-run every
             in-flight transaction is legitimately unterminated *)
          (if not t.finalized then 0
           else
             (* lint: allow hashtbl-order — count-fold; commutative *)
             Hashtbl.fold
               (fun _ v acc -> if v.vstatus = Active then acc + 1 else acc)
               t.txns 0);
        restarts = t.ext_restarts;
        recovery_lost_records = t.ext_recovery_lost;
        ambiguous_commits = ambiguous;
        failovers = t.ext_failovers;
        lost_suffix_commits = t.ext_lost_commits;
        coord_ambiguous_commits = coordinator;
      };
  }

let degradation_reason d =
  let parts = [] in
  let add parts n singular plural =
    if n = 0 then parts
    else Printf.sprintf "%d %s" n (if n = 1 then singular else plural) :: parts
  in
  let parts = add parts d.crashed_clients "client crashed" "clients crashed" in
  let parts =
    add parts d.indeterminate_txns "transaction with indeterminate outcome"
      "transactions with indeterminate outcome"
  in
  let parts =
    add parts d.ambiguous_commits "commit with ambiguous outcome"
      "commits with ambiguous outcome"
  in
  let parts = add parts d.lost_traces "trace lost in collection" "traces lost in collection" in
  let parts = add parts d.late_traces_dropped "late trace dropped" "late traces dropped" in
  let parts = add parts d.dup_traces_dropped "duplicate dropped" "duplicates dropped" in
  let parts = add parts d.inconclusive_reads "read inconclusive" "reads inconclusive" in
  let parts = add parts d.unterminated_txns "transaction unterminated" "transactions unterminated" in
  let parts =
    add parts d.recovery_lost_records "wal record lost in recovery"
      "wal records lost in recovery"
  in
  let parts =
    add parts d.lost_suffix_commits "commit lost at failover"
      "commits lost at failover"
  in
  let parts =
    add parts d.coord_ambiguous_commits
      "commit orphaned by a coordinator crash"
      "commits orphaned by a coordinator crash"
  in
  String.concat ", " (List.rev parts)

let verdict (r : report) =
  if r.bugs_total > 0 then Violation
  else if degradation_free r.degradation then Verified
  else Inconclusive (degradation_reason r.degradation)

(* ------------------------------------------------------------------ *)
(* Checkpoint codec: the full live state (compact after [truncate]) as
   tagged, tab-separated lines, deterministically — every hashtable is
   dumped in a sorted order, every semantically ordered list (chain
   order, lock-entry order, pending deps, deferred heap, reader lists)
   keeps its exact order, so a decoded checker replays the remaining
   stream byte-identically to an uninterrupted run.  Each line kind is
   declared once below: its tag, its [Field] layout and how its rows
   fill a fresh checker.  [encode] writes rows through those layouts;
   [decode] loads them in [kinds] order.  The surrounding container
   (framing, checksums, fingerprint) is [Leopard_trace.Ckpt]'s job; here
   a malformed line is simply an [Error]. *)

module F = Leopard_trace.Field

type 'a kind = { tag : string; row : 'a F.t; load : t -> 'a list -> unit }
type any_kind = Any : 'a kind -> any_kind

(* The [s] line: 24 counters, each written by its getter and restored
   by its setter. *)
let counters =
  [
    ((fun t -> t.frontier), fun t n -> t.frontier <- n);
    ((fun t -> t.dedup_ts), fun t n -> t.dedup_ts <- n);
    ((fun t -> t.traces), fun t n -> t.traces <- n);
    ((fun t -> t.committed), fun t n -> t.committed <- n);
    ((fun t -> t.aborted), fun t n -> t.aborted <- n);
    ((fun t -> t.bugs_total), fun t n -> t.bugs_total <- n);
    ((fun t -> t.reads_checked), fun t n -> t.reads_checked <- n);
    ((fun t -> t.peak_live), fun t n -> t.peak_live <- n);
    ((fun t -> t.pruned_versions), fun t n -> t.pruned_versions <- n);
    ((fun t -> t.pruned_locks), fun t n -> t.pruned_locks <- n);
    ((fun t -> t.pruned_fuw), fun t n -> t.pruned_fuw <- n);
    ((fun t -> t.pruned_graph), fun t n -> t.pruned_graph <- n);
    ((fun t -> t.dup_dropped), fun t n -> t.dup_dropped <- n);
    ((fun t -> t.inconclusive_reads), fun t n -> t.inconclusive_reads <- n);
    ((fun t -> t.ext_crashed_clients), fun t n -> t.ext_crashed_clients <- n);
    ((fun t -> t.ext_late_dropped), fun t n -> t.ext_late_dropped <- n);
    ((fun t -> t.ext_lost), fun t n -> t.ext_lost <- n);
    ((fun t -> t.ext_restarts), fun t n -> t.ext_restarts <- n);
    ((fun t -> t.ext_recovery_lost), fun t n -> t.ext_recovery_lost <- n);
    ((fun t -> t.ext_failovers), fun t n -> t.ext_failovers <- n);
    ((fun t -> t.ext_lost_commits), fun t n -> t.ext_lost_commits <- n);
    ((fun t -> Bool.to_int t.finalized), fun t n -> t.finalized <- n <> 0);
    ((fun t -> t.truncations), fun t n -> t.truncations <- n);
    ((fun t -> t.truncated_deps), fun t n -> t.truncated_deps <- n);
  ]

let kind tag row load = { tag; row; load }
let each f t = List.iter (f t)

let fill table =
  List.iter (fun (cell, l) -> Cell.Tbl.replace table cell (ref l))

let one what = function
  | [ row ] -> row
  | _ -> failwith ("Checker.decode: expected one " ^ what ^ " record")

let find_txn t vid =
  match Hashtbl.find_opt t.txns vid with
  | Some v -> v
  | None -> failwith "Checker.decode: record references unknown transaction"

let iv = F.interval '\t'
let opt_iv = F.option ~none:"-\t-" iv
let mechanism = F.enum Bug.mechanism_to_string Bug.[ Cr; Me; Fuw; Sc ]

let header =
  kind "h" F.(pair '\t' word (triple '\t' int bool bool)) (fun t rows ->
      let name, flags = one "header" rows in
      if not (String.equal name t.profile.Il_profile.name) then
        failwith
          (Printf.sprintf
             "Checker.decode: checkpoint was written for profile %s, not %s"
             name t.profile.Il_profile.name);
      if flags <> (t.gc_every, t.narrow_candidates, t.relaxed_reads) then
        failwith
          "Checker.decode: checkpoint was written under different checker \
           flags")

let scalars =
  kind "s" F.(list '\t' int) (fun t rows ->
      let values = one "scalar" rows in
      if List.compare_lengths values counters <> 0 then
        failwith "Checker.decode: malformed scalar record";
      List.iter2 (fun (_, set) n -> set t n) counters values)

let forgotten =
  kind "fs" F.(list '\t' int) (fun t rows ->
      let tallies = one "truncation-tally" rows in
      if List.length tallies <> Array.length t.forgotten_by_source then
        failwith "Checker.decode: malformed truncation-tally record";
      List.iteri (fun i n -> t.forgotten_by_source.(i) <- n) tallies)

let mech_counts =
  kind "mc" F.(pair '\t' mechanism int)
    (each (fun t (m, n) -> Hashtbl.replace t.mech_counts m n))

let bugs =
  kind "b"
    F.(
      record (fun mechanism anomaly txns cell row detail ->
          { Bug.mechanism; anomaly; txns; cell; row; detail })
      |> field mechanism (fun b -> b.Bug.mechanism)
      |> field (option (enum Anomaly.to_string Anomaly.all)) (fun b ->
             b.Bug.anomaly)
      |> field (list ',' int) (fun b -> b.Bug.txns)
      |> field (option (cell ',')) (fun b -> b.Bug.cell)
      |> field (option (pair ',' int int)) (fun b -> b.Bug.row)
      |> field escaped (fun b -> b.Bug.detail)
      |> seal '\t')
    (fun t rows -> t.bugs <- List.rev rows)

let txns =
  let status = function
    | Active -> "active"
    | Committed -> "committed"
    | Aborted -> "aborted"
    | Indeterminate -> "indeterminate"
  in
  kind "x"
    F.(
      record new_vtxn
      |> field int (fun v -> v.vid)
      |> field
           (enum status [ Active; Committed; Aborted; Indeterminate ])
           (fun v -> v.vstatus)
      |> field opt_iv (fun v -> v.first_iv)
      |> field opt_iv (fun v -> v.terminal_iv)
      |> seal '\t')
    (each (fun t v -> Hashtbl.replace t.txns v.vid v))

(* a transaction's writes, in first-write order *)
let writes =
  kind "xw" F.(pair '\t' int (triple '\t' (cell '\t') int iv))
    (each (fun t (vid, (cell, value, iv)) ->
         let v = find_txn t vid in
         if not (Cell.Tbl.mem v.writes cell) then
           v.write_cells <- cell :: v.write_cells;
         Cell.Tbl.replace v.writes cell (value, iv)))

let pending =
  kind "xd" (F.pair '\t' F.int Dep.field) (fun t rows ->
      List.iter
        (fun (vid, d) ->
          let v = find_txn t vid in
          v.pending_deps <- d :: v.pending_deps)
        (List.rev rows))

let deferred =
  kind "df"
    F.(
      record (fun reader read_iv snapshot_iv items ->
          { reader; read_iv; snapshot_iv; items })
      |> field int (fun p -> p.reader)
      |> field iv (fun p -> p.read_iv)
      |> field iv (fun p -> p.snapshot_iv)
      |> field (list ';' (pair ',' (cell ',') int)) (fun p -> p.items)
      |> seal '\t')
    (fun t -> List.iter (Leopard_util.Min_heap.push t.deferred))

let initial_readers =
  kind "ir" F.(pair '\t' (cell '\t') (list ',' int)) (fun t ->
      fill t.initial_readers)

let aborted_values =
  kind "av" F.(pair '\t' (cell '\t') (list ';' (triple ',' int int int)))
    (fun t -> fill t.aborted_values)

let indeterminate_values =
  kind "nv" F.(pair '\t' (cell '\t') (list ';' (pair ',' int int))) (fun t ->
      fill t.indeterminate_values)

let marks =
  let fate = function
    | Ambiguous -> "ambiguous"
    | Coordinator -> "coordinator"
    | Resolved -> "resolved"
    | Lost -> "lost"
  in
  kind "mk"
    F.(
      pair '\t' int
        (record (fun crashed fate -> { crashed; fate })
        |> field bool (fun u -> u.crashed)
        |> field
             (option (enum fate [ Ambiguous; Coordinator; Resolved; Lost ]))
             (fun u -> u.fate)
        |> seal '\t'))
    (each (fun t (id, u) -> Hashtbl.replace t.marks id u))

let awaiting =
  kind "aw"
    F.(
      pair '\t' int
        (list ';'
           (record (fun a_cell a_value a_writer a_read_iv a_snapshot_iv ->
                { a_cell; a_value; a_writer; a_read_iv; a_snapshot_iv })
           |> field (cell ',') (fun e -> e.a_cell)
           |> field int (fun e -> e.a_value)
           |> field int (fun e -> e.a_writer)
           |> field (interval ',') (fun e -> e.a_read_iv)
           |> field (interval ',') (fun e -> e.a_snapshot_iv)
           |> seal ',')))
    (each (fun t (reader, entries) ->
         Hashtbl.replace t.awaiting reader (ref entries)))

(* a delivered trace, as its [Codec] line *)
let dedup =
  kind "du" F.rest
    (each (fun t line ->
         match Leopard_trace.Codec.of_line line with
         | Ok (Some tr) ->
           Hashtbl.replace t.dedup_seen
             (tr.Trace.client, tr.Trace.txn, tr.Trace.ts_bef)
             tr
         | Ok None -> failwith "Checker.decode: dedup record is a marker line"
         | Error e -> failwith ("Checker.decode: " ^ e)))

let versions =
  kind "vo" Version_order.row (fun t -> Version_order.restore t.versions)

let locks = kind "me" Me_verifier.row (fun t -> Me_verifier.restore t.me)
let updaters = kind "fw" Fuw_verifier.row (fun t -> Fuw_verifier.restore t.fuw)
let graph = kind "sc" Sc_verifier.row (fun t -> Sc_verifier.restore t.sc)
let log = kind "dl" Dep.field (each (fun t d -> ignore (Dep.Log.add t.log d)))

(* in load order: a transaction before its writes and pending deps *)
let kinds =
  [
    Any header; Any scalars; Any forgotten; Any mech_counts; Any bugs;
    Any txns; Any writes; Any pending; Any deferred; Any initial_readers;
    Any aborted_values; Any indeterminate_values; Any marks; Any awaiting;
    Any dedup; Any versions; Any locks; Any updaters; Any graph; Any log;
  ]

let encode t =
  let b = Buffer.create 256 and lines = ref [] in
  let emit k row =
    Buffer.add_string b k.tag;
    Buffer.add_char b '\t';
    F.write k.row b row;
    lines := Buffer.contents b :: !lines;
    Buffer.clear b
  in
  let by_key (a, _) (b, _) = Int.compare a b in
  let per_cell k table =
    Cell.Tbl.fold (fun cell l acc -> (cell, !l) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> Cell.compare a b)
    |> List.iter (emit k)
  in
  emit header
    ( t.profile.Il_profile.name,
      (t.gc_every, t.narrow_candidates, t.relaxed_reads) );
  emit scalars (List.map (fun (get, _) -> get t) counters);
  emit forgotten (Array.to_list t.forgotten_by_source);
  Hashtbl.fold (fun m n acc -> (m, n) :: acc) t.mech_counts []
  |> List.sort (fun (a, _) (b, _) -> Bug.compare_mechanism a b)
  |> List.iter (emit mech_counts);
  List.iter (emit bugs) (List.rev t.bugs);
  Hashtbl.fold (fun _ v acc -> v :: acc) t.txns []
  |> List.sort (fun a b -> Int.compare a.vid b.vid)
  |> List.iter (fun v ->
         emit txns v;
         List.iter
           (fun cell ->
             match Cell.Tbl.find_opt v.writes cell with
             | Some (value, iv) -> emit writes (v.vid, (cell, value, iv))
             | None -> ())
           (List.rev v.write_cells);
         List.iter (fun d -> emit pending (v.vid, d)) v.pending_deps);
  List.iter (emit deferred) (Leopard_util.Min_heap.to_sorted_list t.deferred);
  per_cell initial_readers t.initial_readers;
  per_cell aborted_values t.aborted_values;
  per_cell indeterminate_values t.indeterminate_values;
  Hashtbl.fold (fun id u acc -> (id, u) :: acc) t.marks []
  |> List.sort by_key
  |> List.iter (emit marks);
  Hashtbl.fold (fun reader l acc -> (reader, !l) :: acc) t.awaiting []
  |> List.sort by_key
  |> List.iter (emit awaiting);
  Hashtbl.fold
    (fun _ tr acc -> Leopard_trace.Codec.to_line tr :: acc)
    t.dedup_seen []
  |> List.sort String.compare
  |> List.iter (emit dedup);
  Version_order.dump t.versions (emit versions);
  Me_verifier.dump t.me (emit locks);
  Fuw_verifier.dump t.fuw (emit updaters);
  Sc_verifier.dump t.sc (emit graph);
  List.iter (emit log) (Dep.Log.entries t.log);
  List.rev !lines

let decode ?(gc_every = 512) ?(narrow_candidates = true)
    ?(relaxed_reads = false) (profile : Il_profile.t) lines =
  try
    let t = create ~gc_every ~narrow_candidates ~relaxed_reads profile in
    let rows = Array.make (List.length kinds) [] in
    let index = Hashtbl.create 32 in
    List.iteri (fun i (Any k) -> Hashtbl.replace index k.tag i) kinds;
    let tagged = F.(pair '\t' word rest) in
    List.iter
      (fun line ->
        let tag, rest = F.read tagged line in
        match Hashtbl.find_opt index tag with
        | Some i -> rows.(i) <- rest :: rows.(i)
        | None -> failwith ("Checker.decode: unknown record tag " ^ tag))
      lines;
    List.iteri
      (fun i (Any k) ->
        let read rest =
          try F.read k.row rest
          with Failure e ->
            failwith
              (Printf.sprintf "Checker.decode: malformed %s record: %s" k.tag e)
        in
        k.load t (List.rev_map read rows.(i)))
      kinds;
    Ok t
  with Failure msg | Invalid_argument msg -> Error msg

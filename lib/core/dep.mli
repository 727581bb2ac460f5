(** Deduced transaction dependencies and the deduction log.

    The four verification mechanisms cooperate by exchanging the
    dependencies each of them can prove (paper §V-A): the consistent-read
    check deduces wr edges, mutual exclusion and first-updater-wins deduce
    ww edges, and rw edges follow from a wr edge plus the version order
    (Fig. 9).  The log records every deduction with its source so the
    serialization-certifier check can consume them and the evaluation can
    report which uncertain dependencies were recovered (Fig. 13). *)

type kind = Ww | Wr | Rw

val kind_to_string : kind -> string

val kind_field : kind Leopard_trace.Field.t
(** A kind by its {!kind_to_string} name. *)

type source =
  | Direct  (** non-overlapping intervals: Fig. 3(a) *)
  | From_cr  (** unique candidate match (§V-A) *)
  | From_me  (** unique feasible lock order (Theorem 3) *)
  | From_fuw  (** unique feasible commit order (Theorem 4) *)
  | From_version_order  (** adjacent versions with certain commit order *)
  | Derived_rw  (** wr + version order (Fig. 9) *)

val source_to_string : source -> string

val all_sources : source list
(** Every source, in declaration (report) order. *)

val source_rank : source -> int
(** Position in {!all_sources} — indexes the checker's per-source
    truncation tallies. *)

type t = { kind : kind; from_txn : int; to_txn : int; source : source }

val field : t Leopard_trace.Field.t
(** Kind, from, to and source, tab-separated — a dependency in a
    checkpoint snapshot. *)

module Log : sig
  (** The deduction log: a set of dependencies keyed by (kind, from, to).
      Each entry keeps the record of its first deduction, [source]
      included; a later deduction of the same triple from another source
      is a duplicate.  The log also keeps a running count of its entries
      per source, so {!count} and {!by_source} cost O(1). *)

  type dep = t
  type t

  val create : unit -> t

  val add : t -> dep -> bool
  (** Record a deduction; [false] (and no change) if the (kind, from, to)
      triple was already known. *)

  val mem : t -> kind -> int -> int -> bool
  val count : t -> int

  val by_source : t -> source -> int
  (** Entries whose record came from the given source. *)

  val drop : t -> keep:(int -> bool) -> (dep -> unit) -> unit
  (** [drop t ~keep f] removes, in one pass, every entry with an endpoint
      [txn] such that [keep txn] is false, and calls [f] exactly once on
      each removed entry (also when both its endpoints fail [keep]).  The
      order of the calls is unspecified, so [f] should be commutative,
      such as adding to a tally.  [f] must not touch [t]. *)

  val entries : t -> dep list
  (** All logged deductions in a canonical (kind, from, to, source)
      order — deterministic regardless of insertion history, for
      checkpoint serialization. *)
end

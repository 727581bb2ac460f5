(** Typed text fields — the one syntax of every snapshot record.

    A ['a t] writes an ['a] into a [Buffer.t] and reads it back from a
    string, so a record layout is declared once and its encoder and
    decoder cannot drift apart.  Composites take their separator
    explicitly, and one nested in another with the same separator
    flattens into it: an interval in a tab-separated record is two tab
    fields.  Atoms end at the next ['\t'], [','] or [';'], except
    {!escaped} (ends at a tab) and {!rest}.  Reading raises [Failure] on
    malformed input, and nothing else. *)

type 'a t

val write : 'a t -> Buffer.t -> 'a -> unit

val read : 'a t -> string -> 'a
(** The whole string must be one value. *)

val int : int t
val bool : bool t

val float_bits : float t
(** The IEEE bits, so every float round-trips. *)

val word : string t
(** Verbatim; must hold no separator. *)

val escaped : string t
(** [String.escaped]; must be last or before a tab. *)

val rest : string t
(** Verbatim to the end of the record. *)

val enum : ('a -> string) -> 'a list -> 'a t
(** One of the values, by name. *)

val option : ?none:string -> 'a t -> 'a option t
(** [None] is [none] (default ["-"]), which for a multi-field value
    should have as many fields, e.g. ["-\t-"]. *)

val list : char -> 'a t -> 'a list t
val pair : char -> 'a t -> 'b t -> ('a * 'b) t
val triple : char -> 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val interval : char -> Leopard_util.Interval.t t
(** [bef], [aft]. *)

val cell : char -> Cell.t t
(** [table], [row], [col]. *)

(** {2 Records}

    [record (fun a b -> { a; b }) |> field int (fun r -> r.a)
     |> field bool (fun r -> r.b) |> seal '\t'] *)

type ('r, 'f) fields

val record : 'f -> ('r, 'f) fields
val field : 'a t -> ('r -> 'a) -> ('r, 'a -> 'f) fields -> ('r, 'f) fields
val seal : char -> ('r, 'r) fields -> 'r t

(** {2 Tagged unions} *)

type 'a case

val case : string -> 'b t -> ('a -> 'b option) -> ('b -> 'a) -> 'a case
(** [case tag payload project inject]. *)

val union : char -> 'a case list -> 'a t
(** Written as the tag of the first case whose [project] accepts the
    value, the separator, and the payload. *)

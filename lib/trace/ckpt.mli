(** Crash-safe checker checkpoints — the framed container.

    A checkpoint file binds one verification run (header fingerprint) to
    a sequence of {e frames}, each a complete checker snapshot
    ([Checker.encode] output) written atomically-enough: begin marker,
    per-line checksums, end marker, one [flush].  A process killed
    mid-frame leaves a torn tail; the loader falls back to the previous
    complete frame, so resume loses at most one truncation window of
    progress and never trusts a damaged byte.

    The same discipline as campaign checkpoints ([Campaign.Checkpoint]):
    the file is an optimization, never an authority.

    - missing file: fresh start, silent (first run, not damage);
    - empty file, unrecognized header, foreign fingerprint: ignore the
      whole file, warn once;
    - torn or corrupt frame (bad marker, checksum mismatch, wrong line
      count, failed unescape): stop reading there and trust the last
      complete frame before it, warn once; frames after the damage are
      not read, even intact ones.  If no frame precedes the damage,
      fresh start.

    Payload lines are individually [String.escaped] and checksummed
    (FNV-1a), so arbitrary snapshot bytes round-trip and single-byte
    damage is detected per line. *)

val checksum : string -> string
(** 64-bit FNV-1a of the string, printed as 16 hex digits — the
    per-line checksum of frames here and of campaign checkpoint
    records, and the campaign grid fingerprint. *)

val fingerprint : string list -> string
(** FNV-1a digest of the given identity components (profile name,
    checker flags, input identity…), printed as 16 hex digits.  Binds a
    checkpoint file to the exact run that wrote it: resuming under any
    other configuration ignores the file rather than corrupting the
    verdict. *)

type writer

val writer : path:string -> fingerprint:string -> writer
(** Create or truncate [path] and write the header.  A checkpoint is
    rewritten from scratch by each run — frames within one run append. *)

val append : writer -> string list -> unit
(** Write one complete frame (a full snapshot) and flush.  Later frames
    supersede earlier ones; the loader returns the last valid frame. *)

val close : writer -> unit

val load :
  path:string -> fingerprint:string -> string list option * string option
(** [(frame, warning)]: the payload lines (unescaped, in written order)
    of the last complete frame before the first damaged one — the last
    frame of an undamaged file — or [None] for a fresh start.  [warning]
    is set whenever the file existed but could not be fully trusted —
    the caller should surface it and continue. *)

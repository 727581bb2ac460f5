(* In-memory span recorder for the traced benchmark run.

   A span is one call into a library layer, timed from the benchmark's
   side: a name, start and end on the monotonic clock, the enclosing
   span and the rep (run id) it belongs to, plus the minor-heap words
   allocated in between.  Spans are stored in flat arrays, so recording
   one allocates nothing once the buffers have grown; the traced run's
   allocation figures are therefore the program's own.

   Spans nest strictly (one thread, calls wrapped from outside), which
   makes a layer's self time its duration minus its direct children's.
   [fold] adds the current rep's spans into per-name totals; the raw
   spans of the last folded rep stay in the buffers until the next
   [start_rep], so [write] can dump them when the run ends. *)

type name =
  | Rep
  | Codec_load
  | Split
  | Pipe_build
  | Pipe_drain
  | Pipe_watermark
  | Source
  | Feed_read
  | Feed_write
  | Feed_commit
  | Feed_abort
  | Finalize
  | Report
  | Truncate
  | Encode
  | Ckpt_writer
  | Ckpt_append

let all =
  [|
    Rep; Codec_load; Split; Pipe_build; Pipe_drain;
    Pipe_watermark; Source; Feed_read; Feed_write; Feed_commit; Feed_abort;
    Finalize; Report; Truncate; Encode; Ckpt_writer; Ckpt_append;
  |]

let index = function
  | Rep -> 0
  | Codec_load -> 1
  | Split -> 2
  | Pipe_build -> 3
  | Pipe_drain -> 4
  | Pipe_watermark -> 5
  | Source -> 6
  | Feed_read -> 7
  | Feed_write -> 8
  | Feed_commit -> 9
  | Feed_abort -> 10
  | Finalize -> 11
  | Report -> 12
  | Truncate -> 13
  | Encode -> 14
  | Ckpt_writer -> 15
  | Ckpt_append -> 16

let to_string = function
  | Rep -> "rep"
  | Codec_load -> "Codec.load_all"
  | Split -> "bench.split"
  | Pipe_build -> "Pipeline.build"
  | Pipe_drain -> "Pipeline.drain"
  | Pipe_watermark -> "Pipeline.watermark"
  | Source -> "bench.source"
  | Feed_read -> "Checker.feed.read"
  | Feed_write -> "Checker.feed.write"
  | Feed_commit -> "Checker.feed.commit"
  | Feed_abort -> "Checker.feed.abort"
  | Finalize -> "Checker.finalize"
  | Report -> "Checker.report"
  | Truncate -> "Checker.truncate"
  | Encode -> "Checker.encode"
  | Ckpt_writer -> "Ckpt.writer"
  | Ckpt_append -> "Ckpt.append"

(* ~45 ns per read; [Monotonic_clock.now] is an unboxed noalloc external,
   so this allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let cap = ref 0
let names = ref [||]
let starts = ref [||]
let stops = ref [||]
let parents = ref [||]
let minor0 = ref [||]
let minor1 = ref [||]
let len = ref 0
let rep = ref 0

(* Open spans, innermost last. *)
let stack = Array.make 64 0
let depth = ref 0

let grow () =
  let ncap = max 4096 (2 * !cap) in
  let ints a = Array.append a (Array.make (ncap - !cap) 0) in
  let floats a = Array.append a (Array.make (ncap - !cap) 0.) in
  names := ints !names;
  starts := ints !starts;
  stops := ints !stops;
  parents := ints !parents;
  minor0 := floats !minor0;
  minor1 := floats !minor1;
  cap := ncap

let enter k =
  if !len = !cap then grow ();
  let i = !len in
  len := i + 1;
  Array.unsafe_set !names i (index k);
  Array.unsafe_set !parents i (if !depth = 0 then -1 else stack.(!depth - 1));
  stack.(!depth) <- i;
  incr depth;
  Array.unsafe_set !minor0 i (Gc.minor_words ());
  Array.unsafe_set !starts i (now_ns ())

let leave () =
  let t = now_ns () in
  decr depth;
  let i = stack.(!depth) in
  Array.unsafe_set !stops i t;
  Array.unsafe_set !minor1 i (Gc.minor_words ())

let span k f =
  enter k;
  match f () with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e

(* Per-name totals over every folded rep.  [region_ns] counts only the
   self time of spans inside a [Rep] span: the timed region. *)
let n_names = Array.length all
let calls = Array.make n_names 0
let incl_ns = Array.make n_names 0
let self_ns = Array.make n_names 0
let self_words = Array.make n_names 0.
let region_ns = Array.make n_names 0

let start_rep id =
  rep := id;
  len := 0;
  depth := 0

let fold () =
  let rep_root = index Rep in
  (* a parent is always recorded before its children *)
  let roots = Array.make !len 0 in
  for i = 0 to !len - 1 do
    let k = !names.(i) in
    let dur = !stops.(i) - !starts.(i) in
    let words = !minor1.(i) -. !minor0.(i) in
    let p = !parents.(i) in
    roots.(i) <- (if p < 0 then i else roots.(p));
    let in_region = !names.(roots.(i)) = rep_root in
    calls.(k) <- calls.(k) + 1;
    incl_ns.(k) <- incl_ns.(k) + dur;
    self_ns.(k) <- self_ns.(k) + dur;
    self_words.(k) <- self_words.(k) +. words;
    if in_region then region_ns.(k) <- region_ns.(k) + dur;
    if p >= 0 then begin
      let pk = !names.(p) in
      self_ns.(pk) <- self_ns.(pk) - dur;
      self_words.(pk) <- self_words.(pk) -. words;
      if in_region then region_ns.(pk) <- region_ns.(pk) - dur
    end
  done

let calls_of k = calls.(index k)
let self_s k = float_of_int self_ns.(index k) *. 1e-9
let incl_s k = float_of_int incl_ns.(index k) *. 1e-9
let self_bytes k = self_words.(index k) *. float_of_int (Sys.word_size / 8)
let region_s k = float_of_int region_ns.(index k) *. 1e-9

(* One line per span of the last folded rep: run id, span index, parent
   index (-1 for a root), name, start/end in ns, minor words. *)
let write ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        "run\tspan\tparent\tname\tstart_ns\tend_ns\tminor_words\n";
      for i = 0 to !len - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%.0f\n" !rep i !parents.(i)
          (to_string all.(!names.(i)))
          !starts.(i) !stops.(i)
          (!minor1.(i) -. !minor0.(i))
      done)

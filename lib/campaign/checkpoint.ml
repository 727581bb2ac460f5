(* Crash-safe campaign checkpoints.

   One header line binding the file to a grid (fingerprint + cell
   count), then one record line per completed cell, appended and flushed
   as cells finish.  The file is an optimization, never an authority: a
   resume may trust a record only if every byte of it checks out, and
   anything suspicious degrades to re-running cells — the failure mode
   "checkpoint corruption skipped a cell / crashed the sweep" must not
   exist.

   Robustness rules, in order:
   - missing file: fresh start, silent (first run, not damage);
   - unreadable header, wrong magic/version, fingerprint or cell-count
     mismatch: ignore the whole file with a one-line warning (it
     belongs to some other grid or some other era);
   - a corrupt record line (bad field count, bad number, checksum
     mismatch, out-of-range or duplicate index, undecodable fields):
     keep the valid prefix, drop the line and everything after it, warn
     once.  A torn tail from a killed process loses at most the cell
     being written; the cells it names are simply re-run.

   A record is one [outcome] row (declared below with
   Leopard_trace.Field): tab-separated fields, free text String.escaped
   (so no raw tabs or newlines survive), behind a per-record FNV-1a
   checksum of the payload.  Floats round-trip through their bits so a
   resumed campaign reproduces its results DB byte-for-byte. *)

let magic = "leopard-campaign-checkpoint"
let version = "v1"

let checksum = Leopard_trace.Ckpt.checksum

(* {2 Encoding} *)

module F = Leopard_trace.Field

let degradation =
  F.(
    record (fun restarts recovery_lost ambiguous lost_suffix failovers
                coord_ambiguous crashed_clients indeterminate ->
        { Runner.restarts; recovery_lost; ambiguous; lost_suffix; failovers;
          coord_ambiguous; crashed_clients; indeterminate })
    |> field int (fun d -> d.Runner.restarts)
    |> field int (fun d -> d.Runner.recovery_lost)
    |> field int (fun d -> d.Runner.ambiguous)
    |> field int (fun d -> d.Runner.lost_suffix)
    |> field int (fun d -> d.Runner.failovers)
    |> field int (fun d -> d.Runner.coord_ambiguous)
    |> field int (fun d -> d.Runner.crashed_clients)
    |> field int (fun d -> d.Runner.indeterminate)
    |> seal '\t')

(* [Verified] and [Violation] carry an empty argument field *)
let verdict =
  let open Leopard.Checker in
  F.(
    union '\t'
      [
        case "V" escaped
          (function Verified -> Some "" | Violation | Inconclusive _ -> None)
          (fun _ -> Verified);
        case "B" escaped
          (function Violation -> Some "" | Verified | Inconclusive _ -> None)
          (fun _ -> Violation);
        case "I" escaped
          (function Inconclusive why -> Some why | Verified | Violation -> None)
          (fun why -> Inconclusive why);
      ])

let outcome =
  let completed =
    F.(
      record (fun verdict degradation_line bugs commits aborts deg p50_ns
                  p99_ns sim_ns ->
          { Runner.verdict; degradation_line; bugs; commits; aborts; deg;
            p50_ns; p99_ns; sim_ns })
      |> field verdict (fun c -> c.Runner.verdict)
      |> field escaped (fun c -> c.Runner.degradation_line)
      |> field int (fun c -> c.Runner.bugs)
      |> field int (fun c -> c.Runner.commits)
      |> field int (fun c -> c.Runner.aborts)
      |> field degradation (fun c -> c.Runner.deg)
      |> field float_bits (fun c -> c.Runner.p50_ns)
      |> field float_bits (fun c -> c.Runner.p99_ns)
      |> field int (fun c -> c.Runner.sim_ns)
      |> seal '\t')
  in
  F.(
    union '\t'
      [
        case "C" completed
          (function
            | Runner.Completed c -> Some c
            | Runner.Crashed _ | Runner.Timeout _ -> None)
          (fun c -> Runner.Completed c);
        case "X" (pair '\t' escaped escaped)
          (function
            | Runner.Crashed { exn_text; backtrace } ->
              Some (exn_text, backtrace)
            | Runner.Completed _ | Runner.Timeout _ -> None)
          (fun (exn_text, backtrace) -> Runner.Crashed { exn_text; backtrace });
        case "T" int
          (function
            | Runner.Timeout { budget } -> Some budget
            | Runner.Completed _ | Runner.Crashed _ -> None)
          (fun budget -> Runner.Timeout { budget });
      ])

(* {2 Writing} *)

let write_header oc ~fingerprint ~cells =
  Printf.fprintf oc "%s %s %s %d\n" magic version fingerprint cells;
  flush oc

(* "c", the cell index, the checksum of the payload, the payload *)
let record = F.(pair '\t' word (triple '\t' int word rest))

let append oc ~index (o : Runner.outcome) =
  let b = Buffer.create 256 in
  F.write outcome b o;
  let payload = Buffer.contents b in
  Buffer.clear b;
  F.write record b ("c", (index, checksum payload, payload));
  Buffer.add_char b '\n';
  Buffer.output_buffer oc b;
  flush oc

(* {2 Loading} *)

let parse_record ~cells ~seen line =
  match F.read record line with
  | exception Failure _ -> Error "unparseable record line"
  | tag, _ when not (String.equal tag "c") -> Error "unparseable record line"
  | _, (i, _, _) when i < 0 || i >= cells ->
    Error (Printf.sprintf "cell index %d outside grid of %d" i cells)
  | _, (i, _, _) when seen.(i) -> Error (Printf.sprintf "duplicate cell %d" i)
  | _, (i, sum, payload) -> (
    if not (String.equal sum (checksum payload)) then
      Error (Printf.sprintf "checksum mismatch on cell %d" i)
    else
      match F.read outcome payload with
      | outcome ->
        seen.(i) <- true;
        Ok (i, outcome)
      | exception Failure _ ->
        Error (Printf.sprintf "undecodable record for cell %d" i))

let load ~path ~fingerprint ~cells =
  match open_in path with
  | exception Sys_error _ -> ([], None)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file ->
          ([], Some (Printf.sprintf "checkpoint %s: empty file; starting \
                                     from scratch" path))
        | header -> (
          match String.split_on_char ' ' header with
          | [ m; v; fp; n ]
            when String.equal m magic && String.equal v version
                 && String.equal fp fingerprint
                 && int_of_string_opt n = Some cells -> (
            let seen = Array.make cells false in
            let acc = ref [] in
            let warning = ref None in
            (try
               let lineno = ref 1 in
               let rec loop () =
                 let line = input_line ic in
                 incr lineno;
                 match parse_record ~cells ~seen line with
                 | Ok entry ->
                   acc := entry :: !acc;
                   loop ()
                 | Error why ->
                   warning :=
                     Some
                       (Printf.sprintf
                          "checkpoint %s: line %d: %s; keeping %d valid \
                           record(s), re-running the rest"
                          path !lineno why (List.length !acc))
               in
               loop ()
             with End_of_file -> ());
            match !warning with
            | Some _ as w -> (List.rev !acc, w)
            | None -> (List.rev !acc, None))
          | [ m; v; fp; _ ]
            when String.equal m magic && String.equal v version
                 && not (String.equal fp fingerprint) ->
            ( [],
              Some
                (Printf.sprintf
                   "checkpoint %s: grid fingerprint mismatch (file %s, grid \
                    %s); starting from scratch"
                   path fp fingerprint) )
          | _ ->
            ( [],
              Some
                (Printf.sprintf
                   "checkpoint %s: unrecognized header; starting from scratch"
                   path) )))

type kind = Ww | Wr | Rw

let kind_to_string = function Ww -> "ww" | Wr -> "wr" | Rw -> "rw"

let kind_field = Leopard_trace.Field.enum kind_to_string [ Ww; Wr; Rw ]

type source =
  | Direct
  | From_cr
  | From_me
  | From_fuw
  | From_version_order
  | Derived_rw

let source_to_string = function
  | Direct -> "direct"
  | From_cr -> "cr"
  | From_me -> "me"
  | From_fuw -> "fuw"
  | From_version_order -> "version-order"
  | Derived_rw -> "derived-rw"

let all_sources =
  [ Direct; From_cr; From_me; From_fuw; From_version_order; Derived_rw ]

(* declaration order; pins the report ordering of sources and
   indexes its per-source counts *)
let source_rank = function
  | Direct -> 0
  | From_cr -> 1
  | From_me -> 2
  | From_fuw -> 3
  | From_version_order -> 4
  | Derived_rw -> 5

type t = { kind : kind; from_txn : int; to_txn : int; source : source }

let field =
  Leopard_trace.Field.(
    record (fun kind from_txn to_txn source ->
        { kind; from_txn; to_txn; source })
    |> field kind_field (fun d -> d.kind)
    |> field int (fun d -> d.from_txn)
    |> field int (fun d -> d.to_txn)
    |> field (enum source_to_string all_sources) (fun d -> d.source)
    |> seal '\t')

let kind_rank = function Ww -> 0 | Wr -> 1 | Rw -> 2

module Log = struct
  type dep = t

  (* The log is a set of (kind, from, to) triples; [source] rides along
     in the stored record and plays no part in membership. *)
  module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal a b =
      a.from_txn = b.from_txn && a.to_txn = b.to_txn && a.kind = b.kind

    (* multiply-xorshift over the three fields; the table indexes buckets
       by the low bits, so the high bits are folded down *)
    let hash d =
      let h = ((d.from_txn * 3) + kind_rank d.kind) * 0x2545F4914F6CDD1D in
      let h = (h lxor d.to_txn) * 0x2545F4914F6CDD1D in
      h lxor (h lsr 29)
  end)

  type nonrec t = {
    set : unit Tbl.t;
    by_source : int array;  (* live entries, indexed by [source_rank] *)
  }

  let create () =
    {
      set = Tbl.create 4096;
      by_source = Array.make (List.length all_sources) 0;
    }

  let tally t d delta =
    let r = source_rank d.source in
    t.by_source.(r) <- t.by_source.(r) + delta

  let add t (d : dep) =
    if Tbl.mem t.set d then false
    else begin
      Tbl.add t.set d ();
      tally t d 1;
      true
    end

  let mem t kind from_txn to_txn =
    Tbl.mem t.set { kind; from_txn; to_txn; source = Direct }

  let count t = Tbl.length t.set

  let by_source t s = t.by_source.(source_rank s)

  let drop t ~keep f =
    Tbl.filter_map_inplace
      (fun d () ->
        if keep d.from_txn && keep d.to_txn then Some ()
        else begin
          tally t d (-1);
          f d;
          None
        end)
      t.set

  let entries t =
    Tbl.fold (fun d () acc -> d :: acc) t.set []
    |> List.sort (fun a b ->
           let c = Int.compare (kind_rank a.kind) (kind_rank b.kind) in
           if c <> 0 then c
           else
             let c = Int.compare a.from_txn b.from_txn in
             if c <> 0 then c
             else
               let c = Int.compare a.to_txn b.to_txn in
               if c <> 0 then c
               else Int.compare (source_rank a.source) (source_rank b.source))
end

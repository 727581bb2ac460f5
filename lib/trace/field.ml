module Interval = Leopard_util.Interval

type src = { s : string; mutable pos : int }
type 'a t = { put : Buffer.t -> 'a -> unit; get : src -> 'a }

let write f = f.put

let fail src what =
  failwith (Printf.sprintf "Field: expected %s at byte %d" what src.pos)

let read f s =
  let src = { s; pos = 0 } in
  let v = f.get src in
  if src.pos <> String.length s then fail src "end of record";
  v

let is_sep = function '\t' | ',' | ';' -> true | _ -> false
let ends src i = i >= String.length src.s || is_sep src.s.[i]
let at src c = src.pos < String.length src.s && src.s.[src.pos] = c

let expect src c =
  if at src c then src.pos <- src.pos + 1 else fail src (String.make 1 c)

(* The bytes from the cursor up to [stop], consumed. *)
let take src stop =
  let i = src.pos in
  src.pos <- stop;
  String.sub src.s i (stop - i)

let token src =
  let j = ref src.pos in
  while not (ends src !j) do
    incr j
  done;
  take src !j

let atom what to_string of_string =
  let get src =
    match of_string (token src) with
    | Some v -> v
    | None -> fail src what
  in
  { put = (fun b v -> Buffer.add_string b (to_string v)); get }

(* Digits straight into the buffer: a full-state snapshot writes
   millions of ints. *)
let rec put_digits b n =
  if n >= 10 then put_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let int =
  let put b n =
    if n >= 0 then put_digits b n
    else if n = min_int then Buffer.add_string b (string_of_int n)
    else begin
      Buffer.add_char b '-';
      put_digits b (-n)
    end
  in
  { (atom "an int" string_of_int int_of_string_opt) with put }

let bool = atom "a bool" string_of_bool bool_of_string_opt

let float_bits =
  atom "float bits"
    (fun f -> Int64.to_string (Int64.bits_of_float f))
    (fun s -> Option.map Int64.float_of_bits (Int64.of_string_opt s))

let word = atom "a word" Fun.id Option.some
let rest = { word with get = (fun src -> take src (String.length src.s)) }

let escaped =
  let get src =
    let tab = String.index_from_opt src.s src.pos '\t' in
    let stop = Option.value tab ~default:(String.length src.s) in
    match Scanf.unescaped (take src stop) with
    | s -> s
    | exception Scanf.Scan_failure _ -> fail src "an escaped string"
  in
  { put = (fun b s -> Buffer.add_string b (String.escaped s)); get }

let enum name values =
  atom "a known name" name (fun s ->
      List.find_opt (fun v -> String.equal (name v) s) values)

let option ?(none = "-") f =
  let n = String.length none in
  let get src =
    if
      src.pos + n <= String.length src.s
      && String.equal (String.sub src.s src.pos n) none
      && ends src (src.pos + n)
    then begin
      src.pos <- src.pos + n;
      None
    end
    else Some (f.get src)
  in
  let put b = function None -> Buffer.add_string b none | Some v -> f.put b v in
  { put; get }

let list sep f =
  let rec put_rest b = function
    | [] -> ()
    | v :: l ->
      Buffer.add_char b sep;
      f.put b v;
      put_rest b l
  in
  let put b = function [] -> () | v :: l -> f.put b v; put_rest b l in
  let rec get_rest src acc =
    if at src sep then begin
      src.pos <- src.pos + 1;
      get_rest src (f.get src :: acc)
    end
    else List.rev acc
  in
  let get src = if ends src src.pos then [] else get_rest src [ f.get src ] in
  { put; get }

(* {2 Records} *)

type ('r, 'f) fields = {
  puts : (Buffer.t -> 'r -> unit) list;  (* reversed *)
  gets : char -> src -> 'f;
}

let record ctor = { puts = []; gets = (fun _ _ -> ctor) }

let field f proj fs =
  let first = List.is_empty fs.puts in
  let gets sep src =
    let k = fs.gets sep src in
    if not first then expect src sep;
    k (f.get src)
  in
  { puts = (fun b r -> f.put b (proj r)) :: fs.puts; gets }

let seal sep fs =
  let puts = Array.of_list (List.rev fs.puts) in
  let put b r =
    for i = 0 to Array.length puts - 1 do
      if i > 0 then Buffer.add_char b sep;
      puts.(i) b r
    done
  in
  { put; get = fs.gets sep }

let pair sep a b =
  record (fun x y -> (x, y)) |> field a fst |> field b snd |> seal sep

let triple sep a b c =
  record (fun x y z -> (x, y, z))
  |> field a (fun (x, _, _) -> x)
  |> field b (fun (_, y, _) -> y)
  |> field c (fun (_, _, z) -> z)
  |> seal sep

let interval sep =
  record (fun bef aft ->
      try Interval.make ~bef ~aft with Invalid_argument m -> failwith m)
  |> field int Interval.bef
  |> field int Interval.aft
  |> seal sep

let cell sep =
  record (fun table row col -> Cell.make ~table ~row ~col)
  |> field int (fun c -> c.Cell.table)
  |> field int (fun c -> c.Cell.row)
  |> field int (fun c -> c.Cell.col)
  |> seal sep

(* {2 Tagged unions} *)

type 'a case =
  | Case : string * 'b t * ('a -> 'b option) * ('b -> 'a) -> 'a case

let case tag payload project inject = Case (tag, payload, project, inject)

let union sep cases =
  let rec put b v = function
    | [] -> invalid_arg "Field.union: no case accepts the value"
    | Case (tag, payload, project, _) :: rest -> (
      match project v with
      | Some x ->
        Buffer.add_string b tag;
        Buffer.add_char b sep;
        payload.put b x
      | None -> put b v rest)
  in
  let get src =
    let tag = token src in
    let known (Case (t, _, _, _)) = String.equal t tag in
    match List.find_opt known cases with
    | Some (Case (_, payload, _, inject)) ->
      expect src sep;
      inject (payload.get src)
    | None -> fail src "a known tag"
  in
  { put = (fun b v -> put b v cases); get }

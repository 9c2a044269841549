(* The wire printer and the request reader against the code they
   replaced: the reply and store-record printer must write the bytes
   that printing a [Json.t] tree wrote, the JSON reader and the
   byte-count parser must return what the old ones returned (values and
   error texts), a cached answer must reply as a fresh compute relabelled
   on its tree does, whether it was computed or recovered from a store,
   and a cache hit must allocate at most half of what it did. The
   replaced printers and readers are kept here as [Ref], as they were
   (floats through [Printf]'s "%.15g" and "%.17g", which test_util holds
   equal to the printer's formatter), with the typed M<->L relabelling
   the answers' text replaced. *)

open Fusecu_tensor
open Fusecu_core
open Fusecu_service
module Json = Fusecu_util.Json
module Hash = Fusecu_util.Hash
module Pool = Fusecu_util.Pool
module Buffer = Fusecu_loopnest.Buffer

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* The replaced printer and reader                                     *)

module Ref = struct
  open Json

  let escape_string buf s =
    Stdlib.Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Stdlib.Buffer.add_string buf "\\\""
        | '\\' -> Stdlib.Buffer.add_string buf "\\\\"
        | '\n' -> Stdlib.Buffer.add_string buf "\\n"
        | '\r' -> Stdlib.Buffer.add_string buf "\\r"
        | '\t' -> Stdlib.Buffer.add_string buf "\\t"
        | '\b' -> Stdlib.Buffer.add_string buf "\\b"
        | '\012' -> Stdlib.Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
          Stdlib.Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Stdlib.Buffer.add_char buf c)
      s;
    Stdlib.Buffer.add_char buf '"'

  let float_repr f =
    let s =
      let s15 = Printf.sprintf "%.15g" f in
      if float_of_string s15 = f then s15 else Printf.sprintf "%.17g" f
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

  let rec print_buf buf = function
    | Null -> Stdlib.Buffer.add_string buf "null"
    | Bool true -> Stdlib.Buffer.add_string buf "true"
    | Bool false -> Stdlib.Buffer.add_string buf "false"
    | Int n -> Stdlib.Buffer.add_string buf (string_of_int n)
    | Float f -> Stdlib.Buffer.add_string buf (float_repr f)
    | String s -> escape_string buf s
    | List vs ->
      Stdlib.Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Stdlib.Buffer.add_char buf ',';
          print_buf buf v)
        vs;
      Stdlib.Buffer.add_char buf ']'
    | Obj kvs ->
      Stdlib.Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Stdlib.Buffer.add_char buf ',';
          escape_string buf k;
          Stdlib.Buffer.add_char buf ':';
          print_buf buf v)
        kvs;
      Stdlib.Buffer.add_char buf '}'

  let print v =
    let buf = Stdlib.Buffer.create 256 in
    print_buf buf v;
    Stdlib.Buffer.contents buf

  exception Fail of int * string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Fail (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let at c = !pos < n && Char.equal s.[!pos] c in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | Some c' -> fail (Printf.sprintf "expected %C, found %C" c c')
      | None -> fail (Printf.sprintf "expected %C, found end of input" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail (Printf.sprintf "invalid literal (expected %S)" word)
    in
    let parse_hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let h = String.sub s !pos 4 in
      match int_of_string_opt ("0x" ^ h) with
      | Some c -> pos := !pos + 4; c
      | None -> fail (Printf.sprintf "invalid \\u escape %S" h)
    in
    let add_utf8 buf u =
      if u < 0x80 then Stdlib.Buffer.add_char buf (Char.chr u)
      else if u < 0x800 then begin
        Stdlib.Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
        Stdlib.Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
      end
      else if u < 0x10000 then begin
        Stdlib.Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
        Stdlib.Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
        Stdlib.Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
      end
      else begin
        Stdlib.Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
        Stdlib.Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
        Stdlib.Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
        Stdlib.Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Stdlib.Buffer.create 16 in
      let rec loop () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> advance (); Stdlib.Buffer.contents buf
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape";
           match s.[!pos] with
           | '"' -> advance (); Stdlib.Buffer.add_char buf '"'
           | '\\' -> advance (); Stdlib.Buffer.add_char buf '\\'
           | '/' -> advance (); Stdlib.Buffer.add_char buf '/'
           | 'n' -> advance (); Stdlib.Buffer.add_char buf '\n'
           | 'r' -> advance (); Stdlib.Buffer.add_char buf '\r'
           | 't' -> advance (); Stdlib.Buffer.add_char buf '\t'
           | 'b' -> advance (); Stdlib.Buffer.add_char buf '\b'
           | 'f' -> advance (); Stdlib.Buffer.add_char buf '\012'
           | 'u' ->
             advance ();
             let c = parse_hex4 () in
             let c =
               if c >= 0xD800 && c <= 0xDBFF then begin
                 if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                 then begin
                   pos := !pos + 2;
                   let lo = parse_hex4 () in
                   if lo >= 0xDC00 && lo <= 0xDFFF then
                     0x10000 + ((c - 0xD800) lsl 10) + (lo - 0xDC00)
                   else
                     fail
                       (Printf.sprintf
                          "invalid \\u escape: high surrogate %04X followed by \
                           %04X, not a low surrogate" c lo)
                 end
                 else
                   fail
                     (Printf.sprintf
                        "invalid \\u escape: unpaired high surrogate %04X" c)
               end
               else if c >= 0xDC00 && c <= 0xDFFF then
                 fail
                   (Printf.sprintf
                      "invalid \\u escape: unpaired low surrogate %04X" c)
               else c
             in
             add_utf8 buf c
           | c -> fail (Printf.sprintf "invalid escape \\%c" c));
          loop ()
        | c when Char.code c < 0x20 -> fail "unescaped control character in string"
        | c -> advance (); Stdlib.Buffer.add_char buf c; loop ()
      in
      loop ()
    in
    let parse_number () =
      let start = !pos in
      let is_digit c = c >= '0' && c <= '9' in
      if at '-' then advance ();
      let digits () =
        let d0 = !pos in
        while (match peek () with Some c when is_digit c -> true | _ -> false) do
          advance ()
        done;
        if !pos = d0 then fail "expected digits"
      in
      digits ();
      let is_float = ref false in
      (match peek () with
      | Some '.' ->
        is_float := true;
        advance ();
        digits ()
      | _ -> ());
      (match peek () with
      | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
      | _ -> ());
      let text = String.sub s start (!pos - start) in
      let finite_float () =
        match float_of_string_opt text with
        | Some f when Float.is_finite f -> Float f
        | Some _ -> fail (Printf.sprintf "number %S overflows" text)
        | None -> fail (Printf.sprintf "invalid number %S" text)
      in
      if !is_float then finite_float ()
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> finite_float ()
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
        advance ();
        skip_ws ();
        if at '}' then begin advance (); Obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}' in object"
          in
          members []
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if at ']' then begin advance (); List [] end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elems (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']' in array"
          in
          elems []
        end
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character %C" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos < n then fail "trailing garbage after value";
      v
    with
    | v -> Ok v
    | exception Fail (at, msg) -> Error (Printf.sprintf "byte %d: %s" at msg)

  let mode_to_string = function
    | Mode.Exact -> "exact"
    | Mode.Divisors -> "divisors"
    | Mode.Pow2 -> "pow2"

  let problem_fields (call : Protocol.call) =
    let buffer_fields (b : Buffer.t) =
      [ ("buffer_bytes", Json.Int b.bytes); ("elt_bytes", Json.Int b.elt_bytes) ]
    in
    match call with
    | Intra { op; buffer; mode } ->
      [ ("m", Json.Int op.Matmul.m); ("k", Json.Int op.Matmul.k);
        ("l", Json.Int op.Matmul.l) ]
      @ buffer_fields buffer
      @ [ ("mode", Json.String (mode_to_string mode)) ]
    | Fuse { op; l2; buffer; mode } ->
      [ ("m", Json.Int op.Matmul.m); ("k", Json.Int op.Matmul.k);
        ("l", Json.Int op.Matmul.l); ("l2", Json.Int l2) ]
      @ buffer_fields buffer
      @ [ ("mode", Json.String (mode_to_string mode)) ]
    | Regime { op; buffer } ->
      [ ("m", Json.Int op.Matmul.m); ("k", Json.Int op.Matmul.k);
        ("l", Json.Int op.Matmul.l) ]
      @ buffer_fields buffer
    | Eval { model; buffer; elt_bytes = _; mode } ->
      [ ("model", Json.String model) ]
      @ buffer_fields buffer
      @ [ ("mode", Json.String (mode_to_string mode)) ]
    | Chain { m; ks; buffer; mode } ->
      [ ("m", Json.Int m);
        ("ks", Json.List (List.map (fun k -> Json.Int k) ks)) ]
      @ buffer_fields buffer
      @ [ ("mode", Json.String (mode_to_string mode)) ]
    | Plan_model { model; layers; buffer; elt_bytes = _; mode } ->
      [ ("model", Json.String model); ("layers", Json.Int layers) ]
      @ buffer_fields buffer
      @ [ ("mode", Json.String (mode_to_string mode)) ]
    | Nest { kind; buffer; mode } ->
      (("kind", Json.String (Protocol.nest_kind_name kind))
      :: List.map (fun (n, v) -> (n, Json.Int v)) (Protocol.nest_kind_dims kind))
      @ buffer_fields buffer
      @ [ ("mode", Json.String (mode_to_string mode)) ]

  let cache_key (call : Protocol.call) =
    match call with
    | Intra { op; buffer; mode } ->
      Printf.sprintf "i|%s|%d|%d|%d|%d" (mode_to_string mode) op.Matmul.m
        op.Matmul.k op.Matmul.l (Buffer.elements buffer)
    | Fuse { op; l2; buffer; mode } ->
      Printf.sprintf "f|%s|%d|%d|%d|%d|%d" (mode_to_string mode) op.Matmul.m
        op.Matmul.k op.Matmul.l l2 (Buffer.elements buffer)
    | Regime { op; buffer } ->
      Printf.sprintf "r|%d|%d|%d|%d" op.Matmul.m op.Matmul.k op.Matmul.l
        (Buffer.elements buffer)
    | Eval { model; buffer; elt_bytes; mode } ->
      Printf.sprintf "e|%s|%s|%d|%d" (mode_to_string mode) model
        buffer.Buffer.bytes elt_bytes
    | Chain { m; ks; buffer; mode } ->
      Printf.sprintf "c|%s|%d|%s|%d" (mode_to_string mode) m
        (String.concat "," (List.map string_of_int ks))
        (Buffer.elements buffer)
    | Plan_model { model; layers; buffer; elt_bytes; mode } ->
      Printf.sprintf "pm|%s|%s|%d|%d|%d" (mode_to_string mode) model layers
        buffer.Buffer.bytes elt_bytes
    | Nest { kind; buffer; mode } ->
      Printf.sprintf "n|%s|%s|%s|%d" (mode_to_string mode)
        (Protocol.nest_kind_name kind)
        (String.concat ","
           (List.map (fun (_, v) -> string_of_int v) (Protocol.nest_kind_dims kind)))
        (Buffer.elements buffer)

  let parse_bytes s =
    let s = String.trim (String.lowercase_ascii s) in
    let invalid () = Error (Printf.sprintf "invalid byte count: %S" s) in
    let strip_suffix suffix str =
      let ls = String.length suffix and l = String.length str in
      if l >= ls && String.sub str (l - ls) ls = suffix then
        Some (String.sub str 0 (l - ls))
      else None
    in
    let try_unit (suffix, mult) =
      match strip_suffix suffix s with
      | Some digits when digits <> "" -> (
        let digits = String.trim digits in
        match int_of_string_opt digits with
        | Some n when n >= 0 ->
          if mult > 0 && n > max_int / mult then Some (invalid ())
          else Some (Ok (n * mult))
        | Some _ -> Some (invalid ())
        | None -> (
          match float_of_string_opt digits with
          | Some f when Float.is_finite f && f >= 0. ->
            if mult = 1 && not (Float.is_integer f) then Some (invalid ())
            else
              let rounded = Float.round (f *. float_of_int mult) in
              if rounded > float_of_int max_int then Some (invalid ())
              else Some (Ok (int_of_float rounded))
          | _ -> Some (invalid ())))
      | _ -> None
    in
    let units =
      [ ("tib", 1 lsl 40); ("tb", 1 lsl 40); ("t", 1 lsl 40);
        ("gib", 1 lsl 30); ("gb", 1 lsl 30); ("g", 1 lsl 30);
        ("mib", 1 lsl 20); ("mb", 1 lsl 20); ("m", 1 lsl 20);
        ("kib", 1 lsl 10); ("kb", 1 lsl 10); ("k", 1 lsl 10);
        ("b", 1); ("", 1) ]
    in
    let rec first = function
      | [] -> invalid ()
      | u :: rest -> ( match try_unit u with Some r -> r | None -> first rest)
    in
    first units

  (* An answer's members as a tree. *)
  let fields (o : Protocol.outcome) =
    match parse ("{" ^ o.members ^ "}") with
    | Ok (Obj fields) -> fields
    | _ -> invalid_arg o.members

  (* The relabelling of a canonical intra answer for a transposed
     request, on its tree and through the typed dims and dataflows. *)
  let swap_dim = function Dim.M -> Dim.L | Dim.L -> Dim.M | Dim.K -> Dim.K

  let swap_operand = function
    | Operand.A -> Operand.B
    | Operand.B -> Operand.A
    | Operand.C -> Operand.C

  let transpose_dataflow = function
    | Nra.Single_nra { stationary } -> Nra.Single_nra { stationary = swap_operand stationary }
    | Nra.Two_nra { untiled; redundant } ->
      Nra.Two_nra { untiled = swap_dim untiled; redundant = swap_operand redundant }
    | Nra.Three_nra { resident } -> Nra.Three_nra { resident = swap_operand resident }

  let transpose (tf : Protocol.transform) op fields =
    let named to_string all s = List.find (fun x -> to_string x = s) all in
    match tf with
    | Transpose_ml when op = "intra" ->
      List.map
        (function
          | "tiles", Obj [ (m, tm); k; (l, tl) ] -> ("tiles", Obj [ (m, tl); k; (l, tm) ])
          | "order", List ds ->
            ( "order",
              List
                (List.map
                   (function
                     | String d -> String (Dim.to_string (swap_dim (named Dim.to_string Dim.all d)))
                     | v -> v)
                   ds) )
          | "dataflow", String s ->
            ( "dataflow",
              String
                (Nra.dataflow_to_string
                   (transpose_dataflow (named Nra.dataflow_to_string Nra.all_dataflows s))) )
          | kv -> kv)
        fields
    | _ -> fields

  let response_ok ~id ~call fields =
    print
      (Json.Obj
         [ ("id", id); ("ok", Json.Bool true);
           ("op", Json.String (Protocol.op_name call));
           ("result", Json.Obj (problem_fields call @ fields)) ])

  let frame key op fields =
    let payload =
      print (Json.Obj [ ("k", Json.String key); ("o", Json.Obj (("op", Json.String op) :: fields)) ])
    in
    Printf.sprintf "%08x %s\n" (Hash.crc32 payload) payload
end

(* ------------------------------------------------------------------ *)
(* Generated calls of every op, each with answer members               *)

let gen_json =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun f -> Json.Float (if Float.is_finite f then f else 0.)) float;
               map (fun s -> Json.String s) (string_size (0 -- 12)) ]
         in
         if n <= 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun vs -> Json.List vs) (list_size (0 -- 4) (self (n / 2))));
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (0 -- 4) (pair (string_size (0 -- 8)) (self (n / 2)))) ) ])

(* A call, the members of an answer to it and the transform its reply
   takes. An intra answer has the members [Protocol.intra_outcome]
   writes, in its layout, from generated typed values, and is replied
   in either orientation; any other answer is a list of generated
   members. *)
let gen_case =
  let open QCheck.Gen in
  let dim = 1 -- 5000 in
  let count = oneof [ int_bound 1_000_000; int; return max_int; return 0 ] in
  let text = oneof [ string_size (0 -- 10); string_printable; return "medium" ] in
  let finite = map (fun f -> if Float.is_finite f then f else 1.5) float in
  let pick l = oneofl l in
  let matmul = map3 (fun m k l -> Matmul.make ~m ~k ~l ()) dim dim dim in
  let buffer =
    map2 (fun bytes e -> Buffer.make ~elt_bytes:e bytes) (1 -- max_int) (1 -- 8)
  in
  let mode = pick Mode.[ Exact; Divisors; Pow2 ] in
  let transform = pick Protocol.[ Identity; Transpose_ml ] in
  let intra =
    map
      (fun ((ma, redundancy, footprint), (tm, tk, tl), (order, dataflow, regime)) ->
        [ ("ma", Json.Int ma);
          ("redundancy", Json.Float redundancy);
          ("footprint", Json.Int footprint);
          ("tiles", Json.Obj [ ("m", Json.Int tm); ("k", Json.Int tk); ("l", Json.Int tl) ]);
          ("order", Json.List (List.map (fun d -> Json.String (Dim.to_string d)) order));
          ("class", Json.String (Nra.to_string (Nra.class_of dataflow)));
          ("dataflow", Json.String (Nra.dataflow_to_string dataflow));
          ("regime", Json.String (Regime.to_string regime)) ])
      (triple (triple count finite count) (triple dim dim dim)
         (triple (shuffle_l Dim.all) (pick Nra.all_dataflows)
            (pick Regime.[ Tiny; Small; Medium; Large ])))
  in
  let members = list_size (1 -- 6) (pair (string_size (0 -- 8)) gen_json) in
  let nest_kind =
    oneof
      [ map3 (fun m k l -> Protocol.N_matmul { m; k; l }) dim dim dim;
        map2
          (fun (c, k) (stride, padding) ->
            Protocol.N_conv2d
              (Conv.make ~stride ~padding ~n:1 ~c ~h:7 ~w:7 ~k ~r:3 ~s:3 ()))
          (pair dim dim) (pair (1 -- 2) (0 -- 1));
        map2 (fun b (m, k, l) -> Protocol.N_batched_mm { b; m; k; l }) dim (triple dim dim dim);
        map2
          (fun (groups, heads) (m, k, l) -> Protocol.N_grouped_mm { groups; heads; m; k; l })
          (pair dim dim) (triple dim dim dim);
        map2
          (fun (seq_q, seq_k) (d, dv) -> Protocol.N_attention { seq_q; seq_k; d; dv })
          (pair dim dim) (pair dim dim) ]
  in
  let call_and_answer =
    oneof
      [ map3
          (fun (op, buffer, mode) fields tf -> (Protocol.Intra { op; buffer; mode }, fields, tf))
          (triple matmul buffer mode) intra transform;
        map2
          (fun (op, l2, (buffer, mode)) fields ->
            (Protocol.Fuse { op; l2; buffer; mode }, fields, Protocol.Identity))
          (triple matmul dim (pair buffer mode)) members;
        map3
          (fun (op, buffer) fields tf -> (Protocol.Regime { op; buffer }, fields, tf))
          (pair matmul buffer) members transform;
        map2
          (fun (model, buffer, (elt_bytes, mode)) fields ->
            (Protocol.Eval { model; buffer; elt_bytes; mode }, fields, Protocol.Identity))
          (triple text buffer (pair (1 -- 8) mode)) members;
        map2
          (fun (m, ks, (buffer, mode)) fields ->
            (Protocol.Chain { m; ks; buffer; mode }, fields, Protocol.Identity))
          (triple dim (list_size (2 -- 5) dim) (pair buffer mode)) members;
        map2
          (fun (model, layers, (buffer, elt_bytes, mode)) fields ->
            ( Protocol.Plan_model { model; layers; buffer; elt_bytes; mode },
              fields,
              Protocol.Identity ))
          (triple text (1 -- 64) (triple buffer (1 -- 8) mode)) members;
        map2
          (fun (kind, buffer, mode) fields ->
            (Protocol.Nest { kind; buffer; mode }, fields, Protocol.Identity))
          (triple nest_kind buffer mode) members ]
  in
  pair gen_json call_and_answer

let print_case (id, (call, fields, tf)) =
  Printf.sprintf "id %s, %s%s: %s" (Json.print id) (Protocol.op_name call)
    (match tf with Protocol.Identity -> "" | Protocol.Transpose_ml -> " (transposed)")
    (Json.print (Json.Obj fields))

(* The key of the case's call is a string to frame like any other: the
   record printer does not care which call it came from. *)
let prop_reply_and_frame =
  QCheck.Test.make ~count:2000 ~name:"reply, key and store frame = the Printf/tree printers"
    (QCheck.make gen_case ~print:print_case)
    (fun (id, (call, fields, tf)) ->
      let op = Protocol.op_name call in
      let o = Protocol.apply_transform tf (Protocol.outcome op fields) in
      let fields = Ref.transpose tf op fields in
      let key = Protocol.cache_key call in
      let want = Ref.response_ok ~id ~call fields in
      let got = Protocol.response_ok ~id ~call o in
      let want_frame = Ref.frame key op fields and got_frame = Store.frame key o in
      (String.equal want got
      || QCheck.Test.fail_reportf "reply: want %s@ got  %s" want got)
      && (String.equal (Ref.cache_key call) key
         || QCheck.Test.fail_reportf "key: want %s got %s" (Ref.cache_key call) key)
      && (String.equal want_frame got_frame
         || QCheck.Test.fail_reportf "frame: want %s got  %s" want_frame got_frame))

(* ------------------------------------------------------------------ *)
(* The reader against the replaced one                                 *)

let request_lines =
  lazy
    (In_channel.with_open_text "fixtures/service_requests.ndjson" In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
    |> Array.of_list)

(* Bytes a mutation writes: JSON's structural and number bytes, escape
   letters, controls and arbitrary bytes. *)
let gen_byte =
  let open QCheck.Gen in
  oneof
    [ oneofl
        [ '"'; '\\'; '{'; '}'; '['; ']'; ','; ':'; '-'; '+'; '.'; 'e'; 'E'; '0';
          '9'; 'u'; 'n'; 't'; 'f'; ' '; '\n'; '\000'; '\031'; '_'; 'x'; 'D'; '8' ];
      char ]

(* A request line from the fixture with up to four bytes replaced,
   inserted or deleted; or the print of a generated value. *)
let gen_input =
  let open QCheck.Gen in
  let mutate s =
    let* edits = list_size (0 -- 4) (triple (0 -- 2) nat gen_byte) in
    return
      (List.fold_left
         (fun s (kind, at, c) ->
           let n = String.length s in
           let i = if n = 0 then 0 else at mod n in
           match kind with
           | 0 when n > 0 -> String.mapi (fun j x -> if j = i then c else x) s
           | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
           | _ when n > 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
           | _ -> s)
         s edits)
  in
  frequency
    [ (3, let* i = nat in
          mutate (Lazy.force request_lines).(i mod Array.length (Lazy.force request_lines)));
      (1, map Json.print gen_json);
      (1, let* v = gen_json in
          mutate (Json.print v)) ]

let prop_parse_matches_ref =
  QCheck.Test.make ~count:5000 ~name:"Json.parse = the replaced reader (trees and errors)"
    (QCheck.make gen_input ~print:(Printf.sprintf "%S"))
    (fun s ->
      match (Json.parse s, Ref.parse s) with
      | Ok a, Ok b -> Json.equal a b || QCheck.Test.fail_reportf "trees differ"
      | Error a, Error b ->
        String.equal a b || QCheck.Test.fail_reportf "errors differ: %S vs %S" a b
      | Ok _, Error e -> QCheck.Test.fail_reportf "accepted; reference: %s" e
      | Error e, Ok _ -> QCheck.Test.fail_reportf "rejected (%s); reference accepts" e)

(* Integers at the edges of the in-place reader's 18 digits and of the
   63-bit range, and the error paths it shares with the reference. *)
let test_parse_edges () =
  List.iter
    (fun s ->
      let same =
        match (Json.parse s, Ref.parse s) with
        | Ok a, Ok b -> Json.equal a b
        | Error a, Error b -> String.equal a b
        | _ -> false
      in
      check_bool (Printf.sprintf "%S" s) true same)
    [ "999999999999999999"; "-999999999999999999"; "1000000000000000000";
      "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
      "-4611686018427387905"; "00000000000000000001"; "-0"; "0.0"; "1e5";
      "123456789012345678901234567890"; "[1,2,3]"; "{\"a\":\"b\\\"c\"}";
      "\"a\\u0041\\n\""; "\"\\u1_2_\""; "\"\\u12"; "tru"; "[1,"; "{\"a\" 1}";
      "\"ab\001\""; "{\"k\":nul}"; "[1 2]" ]

(* Byte counts as clients spell them, and near misses: numbers of every
   shape with every suffix in any case, padded, doubled or cut short. *)
let gen_size =
  let open QCheck.Gen in
  let number =
    oneof
      [ map string_of_int (oneof [ int_bound 100_000; int; return max_int ]);
        map (Printf.sprintf "%g") float;
        oneofl
          [ ""; "0"; "1.5"; "-3"; "+5"; "+1.5"; "0x10"; "1_000"; "1e3"; "1e400"; " 7 ";
            "."; "inf"; "nan" ] ]
  in
  let suffix =
    oneofl
      [ ""; "b"; "k"; "kb"; "kib"; "m"; "mb"; "mib"; "g"; "gb"; "gib"; "t"; "tb";
        "tib"; "KB"; "KiB"; "Mb"; "bb"; "kbb"; "ib"; "x"; " kb" ]
  in
  let pad = oneofl [ ""; " "; "\t"; "  " ] in
  map
    (fun ((p1, n), (u, p2), u2) -> p1 ^ n ^ u ^ u2 ^ p2)
    (triple (pair pad number) (pair suffix pad) (oneofl [ ""; ""; ""; "b"; "k" ]))

let prop_parse_bytes_matches_ref =
  QCheck.Test.make ~count:5000 ~name:"Units.parse_bytes = the replaced parser"
    (QCheck.make gen_size ~print:(Printf.sprintf "%S"))
    (fun s ->
      match (Fusecu_util.Units.parse_bytes s, Ref.parse_bytes s) with
      | Ok a, Ok b -> a = b || QCheck.Test.fail_reportf "%d vs %d" a b
      | Error a, Error b -> String.equal a b || QCheck.Test.fail_reportf "%S vs %S" a b
      | Ok a, Error e -> QCheck.Test.fail_reportf "accepted as %d; reference: %s" a e
      | Error e, Ok b -> QCheck.Test.fail_reportf "rejected (%s); reference: %d" e b)

(* ------------------------------------------------------------------ *)
(* The memo: hits in either orientation answer what a cold engine does *)

(* Problems each sent in both orientations, the first one the
   generator's pick, with the buffer spelled four ways. *)
let gen_hits =
  let open QCheck.Gen in
  let dim = map (fun i -> 16 * i) (1 -- 24) in
  let buffer = oneofl [ "\"16KB\""; "16384"; "\"16K\""; "\"8KiB\",\"elt_bytes\":2" ] in
  let problem =
    map3
      (fun (op, id) (m, k, l) ((b1, b2), flip) ->
        let line ~m ~l buffer =
          Printf.sprintf {|{"op":"%s","id":%d,"m":%d,"k":%d,"l":%d,"buffer":%s}|} op id m
            k l buffer
        in
        let m, l = if flip then (l, m) else (m, l) in
        [ line ~m ~l b1; line ~m:l ~l:m b2 ])
      (pair (oneofl [ "intra"; "regime"; "intra" ]) nat)
      (triple dim dim dim)
      (pair (pair buffer buffer) bool)
  in
  list_size (1 -- 40) problem >|= List.concat

(* Each line's answer as the tree printer gives it: a fresh compute of
   the canonical call, relabelled on its tree for the request. *)
let cold_reply engine line =
  match Protocol.parse_line line with
  | Ok (id, _, Protocol.Call call) -> (
    let canonical, tf = Protocol.canonicalize call in
    match Engine.compute engine canonical with
    | Ok o -> Ref.response_ok ~id ~call (Ref.transpose tf o.op (Ref.fields o))
    | Error (code, message) -> Protocol.response_error ~id ~code ~message)
  | _ -> invalid_arg line

let engine_config entries =
  { (Engine.default_config ()) with
    Engine.cache_entries = entries;
    cache_enabled = entries > 0;
    pool = Some Pool.sequential }

(* [lines] answered by an engine warm-started from a store of their
   problems: a first engine writes the store, and the second recovers
   its entries as text and computes nothing. Returns the replies and
   the second engine's cache stats. *)
let warm_replies lines =
  let path = Filename.temp_file "fusecu_wire" ".store" in
  Sys.remove path;
  let open_exn () = match Store.open_ ~path with Ok s -> s | Error e -> failwith e in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let s = open_exn () in
      ignore (Engine.handle_lines (Engine.create ~store:s (engine_config 4096)) lines);
      Store.close s;
      let s = open_exn () in
      let engine = Engine.create ~store:s (engine_config 4096) in
      let replies = Engine.handle_lines engine ~batch:3 lines in
      Store.close s;
      (replies, Engine.cache_stats engine))

let prop_memo_matches_cold =
  QCheck.Test.make ~count:100 ~name:"hits in both orientations = a fresh compute"
    (QCheck.make gen_hits ~print:(String.concat "\n"))
    (fun lines ->
      (* then the whole list again in reverse: every line of the
         second half hits, and so does the second line of a problem *)
      let lines = lines @ List.rev lines in
      let want = List.map (cold_reply (Engine.create (engine_config 0))) lines in
      let warm, st = warm_replies lines in
      (List.equal String.equal (Engine.handle_lines (Engine.create (engine_config 64)) ~batch:3 lines) want
      || QCheck.Test.fail_report "a cached engine's replies differ")
      && (List.equal String.equal warm want
         || QCheck.Test.fail_report "a store-warmed engine's replies differ")
      && (st.Cache.misses = 0 && st.Cache.hits = List.length lines
         || QCheck.Test.fail_reportf "the store-warmed engine missed %d times" st.Cache.misses))

(* ------------------------------------------------------------------ *)
(* Allocation per hit                                                  *)

(* 96 problems, each sent as hit_repeat sends them: in its own
   orientation and M<->L-transposed, with the buffer as an integer, a
   size string and a two-byte-element spelling. *)
let hit_fixture =
  List.concat_map
    (fun i ->
      let m = 32 * (1 + (i mod 12)) and k = 32 * (1 + (i / 12 mod 8)) in
      let l = 32 * (1 + ((i * 5) mod 16)) in
      let op = if i mod 10 = 0 then "regime" else "intra" in
      let line ~m ~l buffer =
        Printf.sprintf {|{"op":"%s","id":%d,"m":%d,"k":%d,"l":%d,"buffer":%s}|} op i m k l
          buffer
      in
      [ line ~m ~l "131072"; line ~m:l ~l:m "\"128KB\""; line ~m ~l "\"128K\"";
        line ~m:l ~l:m "\"256KiB\",\"elt_bytes\":2" ])
    (List.init 96 Fun.id)

(* When every hit printed its outcome again from a [Json.t] tree, a hit
   of this fixture allocated 1,776 minor words (OCaml 5.1.1; 414 with
   kept members). A hit must take at most half of that. *)
let reprinting_words_per_hit = 1776.

let test_hit_allocation () =
  let engine =
    Engine.create
      { (Engine.default_config ()) with Engine.cache_entries = 4096; pool = Some Pool.sequential }
  in
  let cold = Engine.handle_lines engine ~batch:1 hit_fixture in
  let n = List.length hit_fixture in
  let w0 = Gc.minor_words () in
  let warm = Engine.handle_lines engine ~batch:1 hit_fixture in
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  check_bool "warm replies = cold replies" true (List.equal String.equal cold warm);
  let st = Engine.cache_stats engine in
  check_bool "the timed pass only hit" true (st.Cache.hits >= n + (3 * n / 4));
  if words > reprinting_words_per_hit /. 2. then
    Alcotest.failf "%.0f minor words per hit, over half of %.0f" words
      reprinting_words_per_hit

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "fusecu-wire"
    [ ("printer", qcheck [ prop_reply_and_frame ]);
      ( "reader",
        Alcotest.test_case "integer and error edges" `Quick test_parse_edges
        :: qcheck [ prop_parse_matches_ref; prop_parse_bytes_matches_ref ] );
      ( "memo",
        Alcotest.test_case "a hit allocates at most half" `Quick test_hit_allocation
        :: qcheck [ prop_memo_matches_cold ] ) ]

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | String x, String y -> String.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Obj x, Obj y ->
    List.length x = List.length y
    && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x y
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The C formatter behind [Printf]'s "%g" (and [string_of_float]):
   the same bytes without the format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest decimal form that reparses to the same float ("%.15g" is
   enough for most values, "%.17g" always is), forced to contain a '.'
   or exponent so the reader classifies it as Float, not Int. *)
let float_repr f =
  if not (Float.is_finite f) then
    invalid_arg "Json.print: NaN and infinities are not representable";
  let s =
    let s15 = format_float "%.15g" f in
    if float_of_string s15 = f then s15 else format_float "%.17g" f
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

let rec print_buf buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_string buf s
  | List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        print_buf buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        print_buf buf v)
      kvs;
    Buffer.add_char buf '}'

let print v =
  let buf = Buffer.create 256 in
  print_buf buf v;
  Buffer.contents buf

let print_hum v =
  let buf = Buffer.create 256 in
  let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth = function
    | (Null | Bool _ | Int _ | Float _ | String _) as v -> print_buf buf v
    | List [] -> Buffer.add_string buf "[]"
    | List vs ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (depth + 1);
          go (depth + 1) v)
        vs;
      Buffer.add_char buf '\n';
      pad depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (depth + 1);
          escape_string buf k;
          Buffer.add_string buf ": ";
          go (depth + 1) v)
        kvs;
      Buffer.add_char buf '\n';
      pad depth;
      Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Fail of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  (* [peek () = Some c] as a char compare, not a polymorphic one *)
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
  (* Encode a Unicode scalar value as UTF-8; \u escapes outside the BMP
     arrive as surrogate pairs, which the string reader combines. *)
  let add_utf8 buf u =
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance (); Buffer.contents buf
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape";
         match s.[!pos] with
         | '"' -> advance (); Buffer.add_char buf '"'
         | '\\' -> advance (); Buffer.add_char buf '\\'
         | '/' -> advance (); Buffer.add_char buf '/'
         | 'n' -> advance (); Buffer.add_char buf '\n'
         | 'r' -> advance (); Buffer.add_char buf '\r'
         | 't' -> advance (); Buffer.add_char buf '\t'
         | 'b' -> advance (); Buffer.add_char buf '\b'
         | 'f' -> advance (); Buffer.add_char buf '\012'
         | 'u' ->
           advance ();
           let c = parse_hex4 () in
           (* Surrogates are only meaningful as a \uD800-DBFF/\uDC00-DFFF
              pair; a lone half is not a Unicode scalar value, and
              [add_utf8] would emit ill-formed UTF-8 that strict
              consumers reject. Fail instead of passing it through. *)
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
      | c -> advance (); Buffer.add_char buf c; loop ()
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
    (* Overflowing literals ("1e999", 400-digit integers) widen to
       infinity, which [print] cannot represent — accepting them would
       break the parse/print round-trip, so they are malformed input. *)
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
      | None ->
        (* magnitude beyond the 63-bit int range: widen *)
        finite_float ()
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

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_int = function
  | Int n -> Ok n
  | v -> Error (Printf.sprintf "expected an integer, found %s" (type_name v))

let to_float = function
  | Float f -> Ok f
  | Int n -> Ok (float_of_int n)
  | v -> Error (Printf.sprintf "expected a number, found %s" (type_name v))

let to_string_v = function
  | String s -> Ok s
  | v -> Error (Printf.sprintf "expected a string, found %s" (type_name v))

let to_bool = function
  | Bool b -> Ok b
  | v -> Error (Printf.sprintf "expected a bool, found %s" (type_name v))

let to_list = function
  | List vs -> Ok vs
  | v -> Error (Printf.sprintf "expected an array, found %s" (type_name v))

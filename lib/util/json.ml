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

(* The bytes of [string_of_int n], written without the format
   interpreter: digits are taken from the non-positive side, so
   [min_int] needs no special case. *)
let rec write_neg buf m =
  if m <= -10 then write_neg buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))

let write_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    write_neg buf n
  end
  else write_neg buf (-n)

let escape_char buf = function
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | '\b' -> Buffer.add_string buf "\\b"
  | '\012' -> Buffer.add_string buf "\\f"
  | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))

(* Runs of bytes that need no escape are copied whole. *)
let write_string buf s =
  Buffer.add_char buf '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if Char.equal c '"' || Char.equal c '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !start (i - !start);
      escape_char buf c;
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (String.length s - !start);
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

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Int n -> write_int buf n
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> write_string buf s
  | List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        write_string buf k;
        Buffer.add_char buf ':';
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let print v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let print_hum v =
  let buf = Buffer.create 256 in
  let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth = function
    | (Null | Bool _ | Int _ | Float _ | String _) as v -> write buf v
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
          write_string buf k;
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

(* The reader allocates only the tree it returns: one cursor record per
   call, top-level functions instead of closures, a string without
   escapes cut out of the input in one [String.sub], an integer of up to
   18 digits read in place, and members and elements consed in order
   ([tail_mod_cons]) instead of reversed. Escapes, floats and longer
   integers take the general paths below, with the same results. *)

exception Fail of int * string

type cursor = { s : string; n : int; mutable pos : int }

let fail r msg = raise (Fail (r.pos, msg))

let at r c = r.pos < r.n && Char.equal (String.unsafe_get r.s r.pos) c

let skip_ws r =
  while
    r.pos < r.n
    && (match String.unsafe_get r.s r.pos with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false)
  do
    r.pos <- r.pos + 1
  done

let expect r c =
  if r.pos >= r.n then
    fail r (Printf.sprintf "expected %C, found end of input" c)
  else
    let c' = String.unsafe_get r.s r.pos in
    if Char.equal c' c then r.pos <- r.pos + 1
    else fail r (Printf.sprintf "expected %C, found %C" c c')

(* [word] at [s.[pos + i ..]], from its [i]th byte on *)
let rec spelled s pos word i =
  i >= String.length word
  || (Char.equal s.[pos + i] word.[i] && spelled s pos word (i + 1))

let literal r word value =
  let l = String.length word in
  if r.pos + l <= r.n && spelled r.s r.pos word 0 then begin
    r.pos <- r.pos + l;
    value
  end
  else fail r (Printf.sprintf "invalid literal (expected %S)" word)

let parse_hex4 r =
  if r.pos + 4 > r.n then fail r "truncated \\u escape";
  let h = String.sub r.s r.pos 4 in
  match int_of_string_opt ("0x" ^ h) with
  | Some c ->
    r.pos <- r.pos + 4;
    c
  | None -> fail r (Printf.sprintf "invalid \\u escape %S" h)

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

(* One escape, the cursor on its backslash. *)
let escape r buf =
  r.pos <- r.pos + 1;
  if r.pos >= r.n then fail r "unterminated escape";
  let simple c =
    r.pos <- r.pos + 1;
    Buffer.add_char buf c
  in
  match r.s.[r.pos] with
  | '"' -> simple '"'
  | '\\' -> simple '\\'
  | '/' -> simple '/'
  | 'n' -> simple '\n'
  | 'r' -> simple '\r'
  | 't' -> simple '\t'
  | 'b' -> simple '\b'
  | 'f' -> simple '\012'
  | 'u' ->
    r.pos <- r.pos + 1;
    let c = parse_hex4 r in
    (* Surrogates are only meaningful as a \uD800-DBFF/\uDC00-DFFF
       pair; a lone half is not a Unicode scalar value, and [add_utf8]
       would emit ill-formed UTF-8 that strict consumers reject. Fail
       instead of passing it through. *)
    let c =
      if c >= 0xD800 && c <= 0xDBFF then begin
        if r.pos + 2 <= r.n && r.s.[r.pos] = '\\' && r.s.[r.pos + 1] = 'u'
        then begin
          r.pos <- r.pos + 2;
          let lo = parse_hex4 r in
          if lo >= 0xDC00 && lo <= 0xDFFF then
            0x10000 + ((c - 0xD800) lsl 10) + (lo - 0xDC00)
          else
            fail r
              (Printf.sprintf
                 "invalid \\u escape: high surrogate %04X followed by %04X, \
                  not a low surrogate" c lo)
        end
        else
          fail r
            (Printf.sprintf "invalid \\u escape: unpaired high surrogate %04X" c)
      end
      else if c >= 0xDC00 && c <= 0xDFFF then
        fail r
          (Printf.sprintf "invalid \\u escape: unpaired low surrogate %04X" c)
      else c
    in
    add_utf8 buf c
  | c -> fail r (Printf.sprintf "invalid escape \\%c" c)

(* The rest of a string that has an escape, from its first backslash,
   after the escape-free prefix already in [buf]. *)
let rec escaped r buf =
  if r.pos >= r.n then fail r "unterminated string";
  match r.s.[r.pos] with
  | '"' ->
    r.pos <- r.pos + 1;
    Buffer.contents buf
  | '\\' ->
    escape r buf;
    escaped r buf
  | c when Char.code c < 0x20 -> fail r "unescaped control character in string"
  | c ->
    r.pos <- r.pos + 1;
    Buffer.add_char buf c;
    escaped r buf

let rec scan_string r start i =
  if i >= r.n then begin
    r.pos <- i;
    fail r "unterminated string"
  end
  else
    match String.unsafe_get r.s i with
    | '"' ->
      r.pos <- i + 1;
      String.sub r.s start (i - start)
    | '\\' ->
      r.pos <- i;
      let buf = Buffer.create (max 16 (2 * (i - start))) in
      Buffer.add_substring buf r.s start (i - start);
      escaped r buf
    | c when Char.code c < 0x20 ->
      r.pos <- i;
      fail r "unescaped control character in string"
    | _ -> scan_string r start (i + 1)

let parse_string r =
  expect r '"';
  scan_string r r.pos r.pos

let is_digit c = c >= '0' && c <= '9'

let digits r =
  let d0 = r.pos in
  while r.pos < r.n && is_digit (String.unsafe_get r.s r.pos) do
    r.pos <- r.pos + 1
  done;
  if r.pos = d0 then fail r "expected digits"

(* Overflowing literals ("1e999", 400-digit integers) widen to infinity,
   which [print] cannot represent — accepting them would break the
   parse/print round-trip, so they are malformed input. *)
let finite_float r start =
  let text = String.sub r.s start (r.pos - start) in
  match float_of_string_opt text with
  | Some f when Float.is_finite f -> Float f
  | Some _ -> fail r (Printf.sprintf "number %S overflows" text)
  | None -> fail r (Printf.sprintf "invalid number %S" text)

let rec decimal s i stop acc =
  if i >= stop then acc
  else decimal s (i + 1) stop ((10 * acc) + (Char.code (String.unsafe_get s i) - 48))

let parse_number r =
  let start = r.pos in
  let negative = at r '-' in
  if negative then r.pos <- r.pos + 1;
  let d0 = r.pos in
  digits r;
  let int_end = r.pos in
  let is_float = ref false in
  if at r '.' then begin
    is_float := true;
    r.pos <- r.pos + 1;
    digits r
  end;
  if at r 'e' || at r 'E' then begin
    is_float := true;
    r.pos <- r.pos + 1;
    if at r '+' || at r '-' then r.pos <- r.pos + 1;
    digits r
  end;
  if !is_float then finite_float r start
  else if int_end - d0 <= 18 then
    (* at most 10^18 - 1 < 2^62: no overflow, read in place *)
    let v = decimal r.s d0 int_end 0 in
    Int (if negative then -v else v)
  else
    match int_of_string_opt (String.sub r.s start (r.pos - start)) with
    | Some i -> Int i
    | None ->
      (* magnitude beyond the 63-bit int range: widen *)
      finite_float r start

let rec parse_value r =
  skip_ws r;
  if r.pos >= r.n then fail r "unexpected end of input";
  match String.unsafe_get r.s r.pos with
  | '{' ->
    r.pos <- r.pos + 1;
    skip_ws r;
    if at r '}' then begin
      r.pos <- r.pos + 1;
      Obj []
    end
    else Obj (members r)
  | '[' ->
    r.pos <- r.pos + 1;
    skip_ws r;
    if at r ']' then begin
      r.pos <- r.pos + 1;
      List []
    end
    else List (elements r)
  | '"' -> String (parse_string r)
  | 't' -> literal r "true" (Bool true)
  | 'f' -> literal r "false" (Bool false)
  | 'n' -> literal r "null" Null
  | '-' | '0' .. '9' -> parse_number r
  | c -> fail r (Printf.sprintf "unexpected character %C" c)

and[@tail_mod_cons] members r =
  skip_ws r;
  let k = parse_string r in
  skip_ws r;
  expect r ':';
  let v = parse_value r in
  skip_ws r;
  if at r ',' then begin
    r.pos <- r.pos + 1;
    (k, v) :: members r
  end
  else if at r '}' then begin
    r.pos <- r.pos + 1;
    [ (k, v) ]
  end
  else raise (Fail (r.pos, "expected ',' or '}' in object"))

and[@tail_mod_cons] elements r =
  let v = parse_value r in
  skip_ws r;
  if at r ',' then begin
    r.pos <- r.pos + 1;
    v :: elements r
  end
  else if at r ']' then begin
    r.pos <- r.pos + 1;
    [ v ]
  end
  else raise (Fail (r.pos, "expected ',' or ']' in array"))

let parse s =
  let r = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value r in
    skip_ws r;
    if r.pos < r.n then fail r "trailing garbage after value";
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

(* [List.assoc_opt] compares keys polymorphically; keys are strings *)
let rec assoc key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc key rest

let member key = function Obj kvs -> assoc key kvs | _ -> None

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

let kib n = n * 1024
let mib n = n * 1024 * 1024

let pp_scaled ~unit_names ~base n =
  (* Scale by magnitude and re-attach the sign at the end: feeding a
     negative value through the picker would never scale (any negative
     is < base) and could print "-0.00KB"-style output after division. *)
  let sign = if n < 0 then "-" else "" in
  let magnitude = abs n in
  let rec pick value names =
    match names with
    | [] -> assert false
    | [ last ] -> (value, last)
    | name :: rest ->
      if value < float_of_int base then (value, name)
      else pick (value /. float_of_int base) rest
  in
  let value, name = pick (float_of_int magnitude) unit_names in
  if Float.is_integer value && value < 10000. then
    Printf.sprintf "%s%d%s" sign (int_of_float value) name
  else Printf.sprintf "%s%.2f%s" sign value name

let pp_bytes n = pp_scaled ~unit_names:[ "B"; "KB"; "MB"; "GB"; "TB" ] ~base:1024 n

let pp_count n = pp_scaled ~unit_names:[ ""; "K"; "M"; "G"; "T" ] ~base:1000 n

(* Every suffix is binary: KB = KiB = K = 1024 B (the paper quotes
   buffer sizes in binary units; see the .mli). The first suffix, in
   this order, that ends the text after a non-empty number decides. *)
let units =
  [ ("tib", 1 lsl 40); ("tb", 1 lsl 40); ("t", 1 lsl 40);
    ("gib", 1 lsl 30); ("gb", 1 lsl 30); ("g", 1 lsl 30);
    ("mib", 1 lsl 20); ("mb", 1 lsl 20); ("m", 1 lsl 20);
    ("kib", 1 lsl 10); ("kb", 1 lsl 10); ("k", 1 lsl 10);
    ("b", 1); ("", 1) ]

(* [suffix] at [s.[off ..]], compared in place *)
let rec suffix_at s off suffix i =
  i >= String.length suffix
  || Char.equal s.[off + i] suffix.[i] && suffix_at s off suffix (i + 1)

(* The number and multiplier of [s]; only the number is cut out. *)
let rec split_unit s = function
  | [] -> None
  | (suffix, mult) :: rest ->
    let l = String.length s - String.length suffix in
    if l > 0 && suffix_at s l suffix 0 then Some (String.sub s 0 l, mult)
    else split_unit s rest

let parse_bytes s =
  let s = String.trim (String.lowercase_ascii s) in
  let invalid () = Error (Printf.sprintf "invalid byte count: %S" s) in
  match split_unit s units with
  | None -> invalid ()
  | Some (digits, mult) -> (
    (* The numeric part may be fractional — "1.5MB" is 1572864 bytes —
       rounded to the nearest byte when the product is not whole; a bare
       fractional byte count ("1.5", "1.5B") is rejected. *)
    let digits = String.trim digits in
    match int_of_string_opt digits with
    | Some n when n >= 0 ->
      (* The float path below already rejects products past [max_int];
         the integer path must too — [n * mult] silently wraps (e.g.
         "8388609TB"), and a negative byte count would sail through
         every downstream [>= 0] check as a giant allocation. *)
      if mult > 0 && n > max_int / mult then invalid () else Ok (n * mult)
    | Some _ -> invalid ()
    | None -> (
      match float_of_string_opt digits with
      | Some f when Float.is_finite f && f >= 0. ->
        if mult = 1 && not (Float.is_integer f) then invalid ()
        else
          let rounded = Float.round (f *. float_of_int mult) in
          if rounded > float_of_int max_int then invalid ()
          else Ok (int_of_float rounded)
      | _ -> invalid ()))

let pp_pct f = Printf.sprintf "%.1f%%" (100. *. f)

let pp_ratio f = Printf.sprintf "%.2fx" f

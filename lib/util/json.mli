(** A minimal, dependency-free JSON codec for the planning service's
    wire protocol ({!Fusecu_service}).

    The value model distinguishes [Int] from [Float] (the service's
    payloads are overwhelmingly integer counts, and integer traffic
    numbers must survive a round trip exactly): a numeric literal parses
    to [Int] when it has no fraction or exponent part and fits in an
    OCaml [int], to [Float] otherwise. Printing is compact (no
    whitespace), deterministic, and inverse to parsing:
    [parse (print v) = Ok v] for every value built of finite floats.

    Not a general-purpose JSON library: no streaming, no line/column
    tracking beyond a byte offset, objects are plain association lists
    in insertion order (duplicate keys are preserved; {!member} returns
    the first). That is all the newline-delimited request protocol
    needs, and it keeps the opam footprint at zero. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val equal : t -> t -> bool
(** Structural equality; [Int] and [Float] never compare equal (the
    codec keeps them distinct), floats compare with [Float.equal]. *)

(** {1 Printing} *)

val print : t -> string
(** Compact rendering. Strings are escaped per RFC 8259 (control
    characters as [\u00XX]); floats print with the shortest decimal
    representation that parses back to the same value, always containing
    a ['.'] or exponent so they re-parse as [Float]. Raises
    [Invalid_argument] on NaN or infinite floats — JSON cannot represent
    them. *)

val write : Buffer.t -> t -> unit
(** [write buf v] appends [print v] to [buf]. *)

val write_string : Buffer.t -> string -> unit
(** [write_string buf s] appends [print (String s)]: the quoted,
    escaped literal. *)

val write_int : Buffer.t -> int -> unit
(** [write_int buf n] appends [print (Int n)], the bytes of
    [string_of_int n]. *)

val print_hum : t -> string
(** Two-space-indented rendering for humans (metrics dumps). Same
    escaping rules as {!print}. *)

(** {1 Parsing} *)

val parse : string -> (t, string) result
(** Parse exactly one JSON value (leading/trailing whitespace allowed;
    anything else after the value is an error). Errors carry the byte
    offset, e.g. ["byte 7: unterminated string"]. Allocates the returned
    tree and little else: strings without escapes and integers of up to
    18 digits are read in place. *)

(** {1 Accessors}

    Small combinators used by the protocol layer; all return [Error]
    with a descriptive message rather than raising. *)

val member : string -> t -> t option
(** First binding of a key in an [Obj]; [None] for other constructors. *)

val to_int : t -> (int, string) result
(** [Int n] only (the protocol never reads floats where counts are
    expected). *)

val to_float : t -> (float, string) result
(** [Float f] or [Int n] (widened). *)

val to_string_v : t -> (string, string) result

val to_bool : t -> (bool, string) result

val to_list : t -> (t list, string) result

(** Small integer arithmetic helpers used throughout the dataflow models.

    All functions operate on non-negative [int]s unless stated otherwise;
    sizes in this code base (tensor elements, memory accesses, MAC counts)
    always fit in OCaml's 63-bit native integers. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is [a / b] rounded towards positive infinity.
    Requires [a >= 0] and [b > 0]. *)

val clamp : lo:int -> hi:int -> int -> int
(** [clamp ~lo ~hi x] restricts [x] to the inclusive range [\[lo, hi\]].
    Requires [lo <= hi]. *)

val isqrt : int -> int
(** [isqrt n] is the largest [r] with [r * r <= n], for any
    [0 <= n <= max_int] (the boundary fix-up is overflow-safe). Raises
    [Invalid_argument] when [n < 0]. *)

val isqrt_add : int -> int -> int
(** [isqrt_add n c] is [isqrt (n + c)], also when [n + c] exceeds
    [max_int]. Requires [n >= 0] and [0 <= c <= isqrt max_int]. The
    principle builders' symmetric tiles ([isqrt (BS + 1)],
    [isqrt (BS + 4)]) use it, so a buffer of [max_int] bytes is planned,
    not rejected. *)

val divisors : int -> int list
(** [divisors n] lists all positive divisors of [n] in increasing order.
    Requires [n >= 1]. *)

val mul_sat : int -> int -> int
(** [mul_sat a b] is [a * b], saturating at [max_int] instead of
    wrapping. Requires [a >= 0] and [b >= 0]. Threshold arithmetic on
    user-supplied dimension sizes (e.g. [Dmin^2] in {!Fusecu_core}'s
    regime classifier) uses this so that absurdly large operators
    degrade to "everything is below the threshold" rather than to a
    negative product. *)

val add_sat : int -> int -> int
(** [add_sat a b] is [a + b], saturating at [max_int]. Requires
    [a >= 0] and [b >= 0]. *)

val is_pow2 : int -> bool
(** [is_pow2 n] is [true] iff [n] is a positive power of two. *)

val next_pow2 : int -> int
(** [next_pow2 n] is the smallest power of two [>= n]. Raises
    [Invalid_argument] when [n < 1] or when no power of two [>= n] is
    representable (i.e. [n > 2^61] on 64-bit — see {!max_pow2}). *)

val max_pow2 : int
(** The largest power of two representable in an OCaml [int]
    ([2^61] on 64-bit platforms). *)

val pow2s_upto : int -> int list
(** [pow2s_upto n] lists the powers of two [<= n] in increasing order,
    starting at 1. Requires [n >= 1]. *)

val gcd : int -> int -> int
(** Greatest common divisor; [gcd 0 n = abs n]. Total on negative
    inputs: the result is the (non-negative) gcd of the absolute
    values. *)

val range : int -> int -> int list
(** [range lo hi] is the list [lo; lo+1; ...; hi] ([] when [lo > hi]). *)

val sum : int list -> int
(** Sum of a list of integers. *)

val dedup_sorted : int list -> int list
(** Sort a list in increasing order and remove duplicates. *)

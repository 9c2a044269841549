let ceil_div a b =
  assert (a >= 0 && b > 0);
  (a + b - 1) / b

let clamp ~lo ~hi (x : int) =
  assert (lo <= hi);
  if x < lo then lo else if x > hi then hi else x

let isqrt n =
  if n < 0 then invalid_arg "Arith.isqrt: negative argument";
  if n < 2 then n
  else begin
    (* Newton iteration on the float estimate, then fix up the boundary.
       The fix-up compares via division ([r*r <= n] iff [r <= n/r] for
       positive ints) so that [n] near [max_int] cannot overflow the
       squaring: the float estimate for such [n] is ~2^31 and
       [(r+1)*(r+1)] would wrap negative. *)
    let r = ref (int_of_float (sqrt (float_of_int n))) in
    while !r > n / !r do decr r done;
    while !r + 1 <= n / (!r + 1) do incr r done;
    !r
  end

let isqrt_add n c =
  assert (n >= 0 && c >= 0);
  if n <= max_int - c then isqrt (n + c)
  else begin
    (* [n + c] would wrap. [n] is then within [c] of [max_int], so
       [r = isqrt n] is about [sqrt max_int] and the next square is
       [2r + 1 > c] away: [n + c] passes at most one. [r * (r + 2)]
       is [(r + 1)^2 - 1 <= max_int] (compared instead of [(r+1)^2]). *)
    let r = isqrt n in
    if r * (r + 2) - (c - 1) <= n then r + 1 else r
  end

let divisors n =
  assert (n >= 1);
  let rec loop d small large =
    if d * d > n then List.rev_append small large
    else if n mod d = 0 then
      let q = n / d in
      if q = d then loop (d + 1) (d :: small) large
      else loop (d + 1) (d :: small) (q :: large)
    else loop (d + 1) small large
  in
  loop 1 [] []

let mul_sat a b =
  assert (a >= 0 && b >= 0);
  if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

let add_sat a b =
  assert (a >= 0 && b >= 0);
  if a > max_int - b then max_int else a + b

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* Largest power of two an OCaml int can hold (2^61 on 64-bit). *)
let max_pow2 = (max_int lsr 1) + 1

let next_pow2 n =
  if n < 1 then invalid_arg "Arith.next_pow2: argument must be >= 1";
  if n > max_pow2 then
    (* [p * 2] would wrap negative and the loop below would never
       terminate; there is no representable power of two >= n. *)
    invalid_arg "Arith.next_pow2: no representable power of two >= n";
  let rec loop p = if p >= n then p else loop (p * 2) in
  loop 1

let pow2s_upto n =
  assert (n >= 1);
  let rec loop p acc = if p > n then List.rev acc else loop (p * 2) (p :: acc) in
  loop 1 []

let gcd a b =
  (* Total on all ints: gcd is sign-insensitive, so work on absolute
     values ([abs min_int = min_int], but Euclid's remainders shrink in
     magnitude immediately, so even that case terminates correctly). *)
  let rec go a b = if b = 0 then a else go b (a mod b) in
  abs (go (abs a) (abs b))

let range lo hi = List.init (max 0 (hi - lo + 1)) (fun i -> lo + i)

let sum = List.fold_left ( + ) 0

let dedup_sorted xs =
  let sorted = List.sort Int.compare xs in
  let rec uniq = function
    | a :: (b :: _ as rest) -> if Int.equal a b then uniq rest else a :: uniq rest
    | short -> short
  in
  uniq sorted

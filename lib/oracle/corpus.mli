(** A seeded corpus of planning-service request lines: the one input
    every determinism check and answer differential can share.

    The lines start with a given prefix (the service fixture) and go on
    with [size] lines drawn from an {!Rng} stream, so the corpus is a
    pure function of the prefix, the seed and the size. The drawn lines
    cover:
    - every planning op ([intra], [fuse], [regime], [eval], [chain],
      [plan_model], [nest]), each op that takes a ["mode"] cycling
      through [exact], [divisors], [pow2] and the default;
    - all five nest kinds, with strided, padded and dilated convs and
      attention whose [dv] differs from [d];
    - ragged dims 1–24, dims up to 5,000, primes and highly composite
      sizes;
    - buffers from 3 elements to 8 MB, spelled as integers and as unit
      strings several ways, with element widths 1, 2 and 4;
    - exact repeats of earlier lines, M↔L-transposed repeats of [intra]
      and [regime] problems, and respelled repeats (another spelling of
      the buffer or model, the default mode written out, the members in
      reverse order), each of which has the canonical problem of the
      line it repeats;
    - lines rejected with each error code, in turn;
    - the one-shot fixture's extremes: one dimension of 2^20 to 2^40
      (2^16 to 2^20 for a fused or chained [m]) beside small ones, or a
      buffer of [max_int] bytes;
    - [stats] lines between the others.

    Nest shapes stay small (dims up to 16), so a corpus of a few hundred
    lines serves in well under a second. No line is [shutdown] or
    [metrics]. *)

val make : prefix:string list -> seed:int -> size:int -> string list
(** [prefix] followed by [size] generated lines. *)

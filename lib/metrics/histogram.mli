(** Log-linear latency histograms with bounded-error quantiles.

    The value axis (seconds) is cut into octaves — powers of two from
    [2^min_exp] to [2^max_exp] — and each octave into {!sub_buckets}
    linear sub-buckets, so a bucket's relative width is at most
    [1/sub_buckets] (12.5% with the default 8): any reported quantile
    lands in the very bucket that contains the exact order statistic,
    and the returned midpoint is off by at most half a bucket width.
    Values below the first bound clamp into bucket 0, values at or
    above the last into the top bucket (the covered range,
    ~1 microsecond to ~68 minutes, brackets every latency the daemon
    can produce).

    {b Concurrency}: {!observe} is two atomic adds — no lock, and no
    allocation after the first observation, which allocates the
    buckets — so histograms may be hammered from any number of
    domains or threads; concurrent observations merge exactly (counts
    are never lost, the bucket totals always sum to the observation
    count). Reads ({!count}, {!quantile}, {!snapshot}) take no lock
    either; they see some interleaving of concurrent bumps, which for
    monotone counters is always a valid earlier state. *)

type t

val sub_buckets : int
(** Linear sub-buckets per octave (8): the quantile error bound. *)

val num_buckets : int
(** Total buckets: [(max_exp - min_exp) * sub_buckets]. *)

val create : unit -> t

val observe : t -> float -> unit
(** [observe t seconds] records one observation. Non-positive values
    clamp into bucket 0. Hot-path safe: two atomic adds. *)

val bucket_of : float -> int
(** The bucket index [observe] files a value under. *)

val lower_bound : int -> float
(** Inclusive lower bound of bucket [i]. *)

val upper_bound : int -> float
(** Exclusive upper bound of bucket [i] ([= lower_bound (i + 1)]). *)

val count : t -> int
(** Observations so far (the sum of all bucket counts). *)

val sum : t -> float
(** Sum of observed values, in seconds (nanosecond resolution). *)

val quantile : t -> float -> float
(** [quantile t q] for [0 <= q <= 1] is the midpoint of the bucket
    containing the [ceil (q * count)]-th smallest observation — within
    one bucket of the exact order statistic by construction. [0.] when
    the histogram is empty. *)

val quantile_bucket : t -> float -> int
(** The bucket index {!quantile} reads — exposed so the error-bound
    tests can compare it against the exact value's bucket. [-1] when
    empty. *)

val snapshot : t -> int array
(** A copy of the bucket counts. *)

val reset : t -> unit
(** Zero every bucket and the sum (tests and benchmarks). *)

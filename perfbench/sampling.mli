(** Order statistics and open-loop bookkeeping used by the benchmark.

    Quantiles are nearest-rank: the reported value is always one of the
    samples, so a quantile never invents a latency nobody saw. *)

val median : float array -> float
(** Middle sample (mean of the two middle ones for an even count).  Raises
    [Invalid_argument] on an empty array. *)

val quantile : float array -> float -> float
(** [quantile xs q] is the nearest-rank [q]-quantile of [xs], [0 < q <= 1]. *)

val beyond : int -> float -> int
(** [beyond n q] is how many of [n] samples lie strictly above the
    nearest-rank [q]-quantile position. *)

val min_beyond : int
(** Samples a tail quantile needs beyond it before it is reported (10). *)

val tail_quantile : float array -> float -> float option
(** [Some (quantile xs q)] when at least {!min_beyond} samples lie beyond
    the [q] position, [None] otherwise. *)

val due_times : t0:float -> rate:float -> int -> float array
(** Open-loop schedule: request [i] is due at [t0 + i / rate]. *)

val open_loop_latency : due:float array -> replied:float array -> float array
(** Latency of each open-loop request, timed from when it was due, so a
    stall also counts against the requests queued behind it. *)

val lateness : due:float array -> sent:float array -> float array
(** How late the generator sent each request relative to its due time. *)

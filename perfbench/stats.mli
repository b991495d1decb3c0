(** The benchmark's summary statistics: medians, tail percentiles that
    refuse to extrapolate, interval coverage and quantiles read back
    from the daemon's log-binned latency histograms. *)

val median : float array -> float
(** The middle sample (mean of the two middle samples for an even
    count).  Raises [Invalid_argument] on an empty array. *)

type tail = {
  value : float;  (** the nearest-rank sample at the percentile *)
  samples : int;  (** how many samples the percentile was taken over *)
  beyond : int;  (** how many samples rank strictly above it *)
}

val min_beyond : int
(** A tail percentile is reported only when at least this many samples
    (10) rank above it; below that it is noise, not a percentile. *)

val percentile : float array -> float -> tail option
(** [percentile xs p] for [0 < p < 1]: the nearest-rank sample (rank
    [ceil (p * n)], 1-based), or [None] when fewer than {!min_beyond}
    samples lie beyond it.  Raises [Invalid_argument] on [p] outside
    (0, 1). *)

val union_length : lo:float -> hi:float -> (float * float) list -> float
(** Total length of the union of the [(start, stop)] intervals clipped
    to [[lo, hi]]; overlapping and nested intervals count once. *)

val coverage : lo:float -> hi:float -> (float * float) list -> float
(** {!union_length} as a share of [hi - lo] (0 for an empty window):
    the part of a wall-clock window attributed to some span. *)

val log_hist_quantile :
  log10_lo:float ->
  log10_hi:float ->
  underflow:int ->
  overflow:int ->
  counts:int array ->
  float ->
  float option
(** Quantile [q] of a histogram whose [counts] split
    [[10^log10_lo, 10^log10_hi)] into equal bins on the log10 axis (the
    layout of [Proxim_obs.Metrics] histograms), interpolating
    log-linearly inside the bin that holds the quantile.  Underflow
    reads as the lower edge and overflow as the upper edge.  [None]
    when the histogram is empty. *)

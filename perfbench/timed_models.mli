(** A counting, timing wrapper around a model factory: the macromodel
    layer's work count and busy time, measured from outside the library.

    Each of the four oracles of {!Proxim_macromodel.Models.t}
    ([delay1], [trans1], [delay2], [trans2]) is wrapped to count the call
    and add its wall time to a shared total.  The wrapper only calls
    through, so analyses run on wrapped models produce bit-identical
    results; the counters are atomics, so the counts are exact under a
    multi-domain pool.  [assist] (a structural query, not an evaluation)
    and the record's data fields pass through untouched. *)

type t

val create : unit -> t

val wrap :
  t ->
  (Proxim_sta.Design.cell -> Proxim_macromodel.Models.t) ->
  Proxim_sta.Design.cell ->
  Proxim_macromodel.Models.t
(** [wrap t models] answers every cell with a wrapped copy of
    [models cell].  Wrapped copies are shared per underlying model
    (physical identity), so a factory that hands out one model per gate
    type or load bucket — every factory in {!Proxim_sta.Sta} — costs one
    wrapper each, not one per query. *)

val calls : t -> int
(** Oracle calls made through the wrapper so far. *)

val eval_s : t -> float
(** Wall time spent inside those calls, summed over domains, s. *)

(** The seeded request script of the [serve_eco_10k] workload.

    One script per client session, drawn from [(seed, session)] so the
    served run and the in-process replay issue the same requests in the
    same order.  The kinds follow a fixed {!cycle} of 100 requests —
    80 ECO writes (20 of them batched 8-edit ECOs that mix [touch_cell]
    with [set_pi]), 10 full [report]s, 9 [paths] (k = 5 on the design's
    initial critical primary output) and 1 [slacks] — so every seed
    carries the same mix; the seed draws only the edits' targets and
    values.  Every [set_pi] keeps the falling edge of the initial
    stimulus, so no request can raise a mixed-edge error. *)

type kind = Eco | Report | Paths | Slacks

type request = {
  kind : kind;
  ecos : Proxim_sta.Sta.eco list;  (** the edits of an [Eco], in order *)
  json : string;  (** the request frame's payload *)
}

type t

val create :
  seed:int ->
  session:int ->
  pis:string array ->
  cells:string array ->
  po:string ->
  t

val cycle : int
(** Requests per cycle of the kind schedule (100). *)

val next : t -> request

val kind_name : kind -> string

val initial_arrival : Proxim_sta.Sta.arrival
(** The [pi_all] stimulus every session attaches with: a 200 ps fall
    crossing at t = 0 (the CLI's [--pi-all fall:200:0]). *)

val slack_required : float
(** The required time of the [slacks] queries, s. *)

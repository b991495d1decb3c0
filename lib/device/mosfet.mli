(** MOSFET compact models.

    Two square-law-family models are provided, matching the modeling level
    of the paper's era:

    - {b Shichman–Hodges} (SPICE level 1) with channel-length modulation —
      the default throughout the repo;
    - {b Sakurai–Newton alpha-power} (reference \[14\] of the paper), which
      captures velocity saturation via the exponent [alpha] ([alpha = 2.]
      reduces exactly to Shichman–Hodges with the same parameters).

    The evaluator returns the drain current together with its partial
    derivatives with respect to the three terminal voltages, which is what
    the MNA Newton stamps need.  Source/drain symmetry is handled
    internally (the device conducts identically with the channel reversed),
    so callers never need to order the diffusion terminals. *)

type polarity = Nmos | Pmos

type model_kind =
  | Shichman_hodges
  | Alpha_power of float  (** the alpha exponent, typically 1.0–2.0 *)

type params = {
  polarity : polarity;
  vt0 : float;
      (** zero-bias threshold voltage; positive for NMOS, negative for PMOS *)
  kp : float;  (** process transconductance [mu * Cox], A/V^2 *)
  lambda : float;  (** channel-length modulation, 1/V *)
  w : float;  (** channel width, m *)
  l : float;  (** channel length, m *)
  kind : model_kind;
}

val k_strength : params -> float
(** The paper's transistor strength [K = 1/2 * mu * Cox * W / L]
    (footnote 1 of the paper), in A/V^2. *)

val beta : params -> float
(** [kp * w / l], the conventional gain factor (= [2 * k_strength]). *)

type eval = {
  mutable id : float;  (** current into the drain terminal, A *)
  mutable did_dvg : float;  (** d(id)/d(Vgate), S *)
  mutable did_dvd : float;  (** d(id)/d(Vdrain), S *)
  mutable did_dvs : float;  (** d(id)/d(Vsource), S *)
}
(** Mutable so that the MNA assembly can reuse one record as a stamp
    buffer across every device and Newton iteration. *)

val eval_into : params -> vg:float -> vd:float -> vs:float -> eval -> unit
(** [eval_into p ~vg ~vd ~vs out] evaluates the channel current and its
    derivatives at the given absolute terminal voltages into [out],
    allocating nothing.  The body terminal is assumed tied to the rail
    (no body effect, as in the paper's analysis). *)

val eval : params -> vg:float -> vd:float -> vs:float -> eval
(** {!eval_into} a fresh record. *)

val region : params -> vg:float -> vd:float -> vs:float -> string
(** ["cutoff"], ["linear"] or ["saturation"] — for diagnostics and tests. *)

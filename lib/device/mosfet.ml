type polarity = Nmos | Pmos

type model_kind = Shichman_hodges | Alpha_power of float

type params = {
  polarity : polarity;
  vt0 : float;
  kp : float;
  lambda : float;
  w : float;
  l : float;
  kind : model_kind;
}

let beta p = p.kp *. p.w /. p.l
let k_strength p = 0.5 *. beta p

type eval = {
  mutable id : float;
  mutable did_dvg : float;
  mutable did_dvd : float;
  mutable did_dvs : float;
}

(* Core NMOS-convention current: given vgs, vds >= 0 (already normalized),
   store ids, d/dvgs and d/dvds in [out.id], [out.did_dvg] and
   [out.did_dvd].  [vt] is the positive threshold. *)
let nmos_current p ~vgs ~vds out =
  let vt = (match p.polarity with Nmos -> p.vt0 | Pmos -> -.p.vt0) in
  let vov = vgs -. vt in
  if vov <= 0. then begin
    out.id <- 0.;
    out.did_dvg <- 0.;
    out.did_dvd <- 0.
  end
  else begin
    let b = beta p in
    let clm = 1. +. (p.lambda *. vds) in
    match p.kind with
    | Shichman_hodges ->
      if vds < vov then begin
        (* linear (triode): Id = b * (vov*vds - vds^2/2) * (1 + lambda vds) *)
        let core = (vov *. vds) -. (0.5 *. vds *. vds) in
        out.id <- b *. core *. clm;
        out.did_dvg <- b *. vds *. clm;
        out.did_dvd <- (b *. (vov -. vds) *. clm) +. (b *. core *. p.lambda)
      end
      else begin
        (* saturation: Id = (b/2) vov^2 (1 + lambda vds) *)
        out.id <- 0.5 *. b *. vov *. vov *. clm;
        out.did_dvg <- b *. vov *. clm;
        out.did_dvd <- 0.5 *. b *. vov *. vov *. p.lambda
      end
    | Alpha_power alpha ->
      (* Simplified Sakurai–Newton: Id_sat = (b/2) vov^alpha (1+l vds),
         Vdsat = vov, triode Id = Id_sat0 * (2 - vds/vdsat)(vds/vdsat).
         alpha = 2 recovers Shichman–Hodges exactly. *)
      let idsat0 = 0.5 *. b *. (vov ** alpha) in
      let didsat0_dvgs = 0.5 *. b *. alpha *. (vov ** (alpha -. 1.)) in
      if vds < vov then begin
        let u = vds /. vov in
        let shape = u *. (2. -. u) in
        (* d shape/d vds = (2 - 2u)/vov ; d shape/d vgs via u = vds/vov *)
        let dshape_dvds = (2. -. (2. *. u)) /. vov in
        let dshape_dvgs = (2. *. u *. (u -. 1.)) /. vov in
        out.id <- idsat0 *. shape *. clm;
        out.did_dvg <-
          ((didsat0_dvgs *. shape) +. (idsat0 *. dshape_dvgs)) *. clm;
        out.did_dvd <-
          (idsat0 *. dshape_dvds *. clm) +. (idsat0 *. shape *. p.lambda)
      end
      else begin
        out.id <- idsat0 *. clm;
        out.did_dvg <- didsat0_dvgs *. clm;
        out.did_dvd <- idsat0 *. p.lambda
      end
  end

(* Normalize polarity and diffusion orientation, evaluate, and map the
   derivatives back to absolute terminal voltages. *)
let eval_into p ~vg ~vd ~vs out =
  (* Polarity transform: a PMOS behaves as an NMOS with all voltages
     negated (and current direction flipped back at the end). *)
  let pmos = match p.polarity with Nmos -> false | Pmos -> true in
  let sgn = if pmos then -1. else 1. in
  let vg = if pmos then -.vg else vg in
  let vd = if pmos then -.vd else vd in
  let vs = if pmos then -.vs else vs in
  (* Diffusion symmetry: if vd < vs the channel conducts in reverse. *)
  let swapped = vd < vs in
  let vd' = if swapped then vs else vd in
  let vs' = if swapped then vd else vs in
  nmos_current p ~vgs:(vg -. vs') ~vds:(vd' -. vs') out;
  (* In normalized space: Id flows d' -> s'.
     d Id / d vg = dvgs; d Id / d vd' = dvds; d Id / d vs' = -dvgs - dvds. *)
  let ids = out.id and dvgs = out.did_dvg and dvds = out.did_dvd in
  let did_dvs'_n = -.dvgs -. dvds in
  (* Undo polarity negation: Id_actual = sgn * Id_n(vg_n = sgn*vg, ...)
     => d Id_actual / d v_actual = sgn * dId_n/dv_n * sgn = dId_n/dv_n. *)
  if swapped then begin
    (* actual drain current = -Id (current flowed s' -> d' in actual
       orientation); actual vd is normalized vs' and vice versa *)
    out.id <- sgn *. (-.ids);
    out.did_dvg <- -.dvgs;
    out.did_dvd <- -.did_dvs'_n;
    out.did_dvs <- -.dvds
  end
  else begin
    out.id <- sgn *. ids;
    out.did_dvg <- dvgs;
    out.did_dvd <- dvds;
    out.did_dvs <- did_dvs'_n
  end

let eval p ~vg ~vd ~vs =
  let out = { id = 0.; did_dvg = 0.; did_dvd = 0.; did_dvs = 0. } in
  eval_into p ~vg ~vd ~vs out;
  out

let region p ~vg ~vd ~vs =
  let vg, vd, vs =
    match p.polarity with
    | Nmos -> (vg, vd, vs)
    | Pmos -> (-.vg, -.vd, -.vs)
  in
  let vd', vs' = if vd < vs then (vs, vd) else (vd, vs) in
  let vt = (match p.polarity with Nmos -> p.vt0 | Pmos -> -.p.vt0) in
  let vov = vg -. vs' -. vt in
  let vds = vd' -. vs' in
  if vov <= 0. then "cutoff" else if vds < vov then "linear" else "saturation"

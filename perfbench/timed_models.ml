module Models = Proxim_macromodel.Models

type t = {
  calls : int Atomic.t;
  nanos : int Atomic.t;
  wrapped : (Models.t * Models.t) list Atomic.t;
}

let create () =
  { calls = Atomic.make 0; nanos = Atomic.make 0; wrapped = Atomic.make [] }

let calls t = Atomic.get t.calls
let eval_s t = float_of_int (Atomic.get t.nanos) *. 1e-9

let note t t0 =
  Atomic.incr t.calls;
  let dt = Unix.gettimeofday () -. t0 in
  ignore (Atomic.fetch_and_add t.nanos (int_of_float (dt *. 1e9)) : int)

let wrap_model t (m : Models.t) =
  {
    m with
    Models.delay1 =
      (fun ~pin ~edge ~tau ->
        let t0 = Unix.gettimeofday () in
        match m.Models.delay1 ~pin ~edge ~tau with
        | v ->
          note t t0;
          v
        | exception e ->
          note t t0;
          raise e);
    trans1 =
      (fun ~pin ~edge ~tau ->
        let t0 = Unix.gettimeofday () in
        match m.Models.trans1 ~pin ~edge ~tau with
        | v ->
          note t t0;
          v
        | exception e ->
          note t t0;
          raise e);
    delay2 =
      (fun ~dom ~other ~edge ~tau_dom ~tau_other ~sep ->
        let t0 = Unix.gettimeofday () in
        match m.Models.delay2 ~dom ~other ~edge ~tau_dom ~tau_other ~sep with
        | v ->
          note t t0;
          v
        | exception e ->
          note t t0;
          raise e);
    trans2 =
      (fun ~dom ~other ~edge ~tau_dom ~tau_other ~sep ->
        let t0 = Unix.gettimeofday () in
        match m.Models.trans2 ~dom ~other ~edge ~tau_dom ~tau_other ~sep with
        | v ->
          note t t0;
          v
        | exception e ->
          note t t0;
          raise e);
  }

let rec lookup m = function
  | [] -> None
  | (k, w) :: tl -> if k == m then Some w else lookup m tl

let wrap t models cell =
  let m = models cell in
  match lookup m (Atomic.get t.wrapped) with
  | Some w -> w
  | None ->
    (* two domains racing on a new model may both wrap it; both copies
       count into the same atomics, so the race only costs a record *)
    let w = wrap_model t m in
    let rec push () =
      let l = Atomic.get t.wrapped in
      if not (Atomic.compare_and_set t.wrapped l ((m, w) :: l)) then push ()
    in
    push ();
    w

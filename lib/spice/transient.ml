module Netlist = Proxim_circuit.Netlist
module Pwl = Proxim_waveform.Pwl

type result = {
  times : float array;
  node_voltages : float array array;
  accepted_steps : int;
  rejected_steps : int;
  newton_iterations : int;
}

exception No_convergence of string

(* Union of all source-waveform knots inside (0, t_stop), sorted. *)
let breakpoints sys ~t_stop ~overridden =
  let times = ref [] in
  for k = 0 to Mna.source_count sys - 1 do
    if not overridden.(k) then
      Array.iter
        (fun (t, _) -> if t > 0. && t < t_stop then times := t :: !times)
        (Pwl.points (Mna.source_wave sys k))
  done;
  let arr = Array.of_list (t_stop :: !times) in
  Array.sort compare arr;
  (* drop near-duplicates to keep steps well conditioned *)
  let out = ref [] in
  Array.iter
    (fun t ->
      match !out with
      | prev :: _ when t -. prev < 1e-16 -> ()
      | _ -> out := t :: !out)
    arr;
  Array.of_list (List.rev !out)

(* The accepted trajectory: one row [t; v_1; ...; v_nv] per sample,
   appended in place to one flat, growable float buffer, so that an
   accepted step allocates nothing. *)
type trajectory = { mutable rows : float array; mutable len : int }

let record tr ~t ~x ~nv =
  let stride = nv + 1 in
  if tr.len + stride > Array.length tr.rows then begin
    let rows = Array.make (2 * (tr.len + stride)) 0. in
    Array.blit tr.rows 0 rows 0 tr.len;
    tr.rows <- rows
  end;
  tr.rows.(tr.len) <- t;
  Array.blit x 0 tr.rows (tr.len + 1) nv;
  tr.len <- tr.len + stride

let run ?(opts = Options.default) ?(overrides = []) net ~t_stop =
  assert (t_stop > 0.);
  let sys = Mna.build net in
  let n = Mna.size sys and nv = Mna.node_unknowns sys in
  let override_value =
    Array.map (fun name -> List.assoc_opt name overrides) (Mna.source_names sys)
  in
  let sv = Array.make (Mna.source_count sys) 0. in
  let set_source_values t =
    for k = 0 to Array.length sv - 1 do
      sv.(k) <-
        (match override_value.(k) with
         | Some v -> v
         | None -> Pwl.value (Mna.source_wave sys k) t)
    done
  in
  let ws = Newton.workspace sys in
  (* initial condition: DC at t = 0 *)
  set_source_values 0.;
  let x = Array.make n 0. in
  ignore (Dc.solve ~opts sys ws ~source_values:sv ~x : int);
  let n_caps = Mna.cap_count sys in
  let cap_farads = Array.init n_caps (Mna.cap_farads sys) in
  let cap_i = Array.make n_caps 0. in
  (* trapezoidal needs the capacitor current at the old time point; at the
     DC point it is zero by definition *)
  let cap_v = Array.init n_caps (fun k -> Mna.cap_voltage sys ~x k) in
  let geq = Array.make n_caps 0. and ieq = Array.make n_caps 0. in
  let companions = Some { Mna.geq; ieq } in
  let x_try = Array.make n 0. in
  let bps = breakpoints sys ~t_stop ~overridden:(Array.map Option.is_some override_value) in
  let tr = { rows = Array.make (256 * (nv + 1)) 0.; len = 0 } in
  record tr ~t:0. ~x ~nv;
  let accepted = ref 0 and rejected = ref 0 and newton_total = ref 0 in
  let t = ref 0. in
  let h = ref (Float.min opts.Options.h_max (t_stop /. 1000.)) in
  let bp_index = ref 0 in
  (* first step after a breakpoint (or t=0) integrates with backward Euler
     to avoid trapezoidal ringing on slope discontinuities *)
  let force_be = ref true in
  while !t < t_stop -. 1e-18 do
    (* clamp the step to the next breakpoint *)
    while !bp_index < Array.length bps && bps.(!bp_index) <= !t +. 1e-18 do
      incr bp_index
    done;
    let next_bp = if !bp_index < Array.length bps then bps.(!bp_index) else t_stop in
    let h_try = Float.min !h (next_bp -. !t) in
    let h_try = Float.max h_try opts.Options.h_min in
    let use_trap =
      (not !force_be) && opts.Options.integration = Options.Trapezoidal
    in
    for k = 0 to n_caps - 1 do
      let c = cap_farads.(k) in
      if use_trap then begin
        let g = 2. *. c /. h_try in
        geq.(k) <- g;
        ieq.(k) <- (g *. cap_v.(k)) +. cap_i.(k)
      end
      else begin
        let g = c /. h_try in
        geq.(k) <- g;
        ieq.(k) <- g *. cap_v.(k)
      end
    done;
    let t_new = !t +. h_try in
    set_source_values t_new;
    Array.blit x 0 x_try 0 n;
    let outcome =
      Newton.solve sys ws ~opts ~gmin:opts.Options.gmin ~source_values:sv
        ~cap_companions:companions ~x:x_try
    in
    let max_dv =
      let m = ref 0. in
      for i = 0 to nv - 1 do
        m := Float.max !m (Float.abs (x_try.(i) -. x.(i)))
      done;
      !m
    in
    let step_ok =
      match outcome with
      | Newton.Converged _ ->
        max_dv <= opts.Options.dv_step_target || h_try <= opts.Options.h_min *. 1.01
      | Newton.Diverged _ -> false
    in
    if step_ok then begin
      (match outcome with
       | Newton.Converged k -> newton_total := !newton_total + k
       | Newton.Diverged _ -> ());
      (* update capacitor companion state *)
      for k = 0 to n_caps - 1 do
        let v_new = Mna.cap_voltage sys ~x:x_try k in
        cap_i.(k) <- (geq.(k) *. v_new) -. ieq.(k);
        cap_v.(k) <- v_new
      done;
      Array.blit x_try 0 x 0 n;
      t := t_new;
      incr accepted;
      record tr ~t:t_new ~x ~nv;
      force_be := Float.abs (t_new -. next_bp) < 1e-18 && t_new < t_stop;
      (* grow the step when the solution barely moved *)
      if max_dv < 0.3 *. opts.Options.dv_step_target then
        h := Float.min opts.Options.h_max (!h *. 1.6)
    end
    else begin
      incr rejected;
      if h_try <= opts.Options.h_min *. 1.01 then begin
        let reason =
          match outcome with
          | Newton.Converged _ ->
            Printf.sprintf "dv %.3g V exceeds target" max_dv
          | Newton.Diverged m -> m
        in
        raise
          (No_convergence
             (Printf.sprintf
                "transient: step underflow at t = %.6g s (h = %.3g s): %s" !t
                h_try reason))
      end;
      h := Float.max opts.Options.h_min (h_try *. 0.4)
    end
  done;
  (* column 0 of the trajectory is time, column [node] that node's
     voltage; ground's waveform stays all zero *)
  let stride = nv + 1 in
  let samples = tr.len / stride in
  let column c =
    let col = Array.make samples 0. in
    for s = 0 to samples - 1 do
      col.(s) <- tr.rows.((s * stride) + c)
    done;
    col
  in
  {
    times = column 0;
    node_voltages =
      Array.init (nv + 1) (fun node ->
        if node = 0 then Array.make samples 0. else column node);
    accepted_steps = !accepted;
    rejected_steps = !rejected;
    newton_iterations = !newton_total;
  }

let probe result node =
  Pwl.of_samples ~times:result.times ~values:result.node_voltages.(node)

let probe_named net result name = probe result (Netlist.find_node net name)

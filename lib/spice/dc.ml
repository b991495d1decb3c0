module Pwl = Proxim_waveform.Pwl

type solution = {
  voltages : float array;
  branch_currents : float array;
  raw : float array;
  newton_iterations : int;
}

exception No_convergence of string

let base_source_values sys overrides =
  let names = Mna.source_names sys in
  Array.mapi
    (fun k name ->
      match List.assoc_opt name overrides with
      | Some v -> v
      | None -> Pwl.value (Mna.source_wave sys k) 0.)
    names

let make_solution sys x iterations =
  let nv = Mna.node_unknowns sys in
  let voltages = Array.init (nv + 1) (fun n -> Mna.voltage sys ~x n) in
  let branch_currents =
    Array.init (Mna.source_count sys) (fun k -> x.(nv + k))
  in
  { voltages; branch_currents; raw = Array.copy x; newton_iterations = iterations }

(* Continuation ladder: plain Newton from the seed in [x]; then gmin
   stepping (start with a heavily damped circuit and relax); then source
   stepping (grow the EMFs from 0).  Each fallback restarts [x] from zero
   and each rung reuses the best iterate found so far. *)
let solve ?(opts = Options.default) sys ws ~source_values ~x =
  let attempt ~gmin ~sv x =
    Newton.solve sys ws ~opts ~gmin ~source_values:sv ~cap_companions:None ~x
  in
  match attempt ~gmin:opts.Options.gmin ~sv:source_values x with
  | Newton.Converged k -> k
  | Newton.Diverged _ ->
    (* gmin stepping *)
    Array.fill x 0 (Array.length x) 0.;
    let gmin_ladder = [ 1e-2; 1e-4; 1e-6; 1e-8; 1e-10; opts.Options.gmin ] in
    let gmin_ok =
      List.for_all
        (fun g ->
          match attempt ~gmin:g ~sv:source_values x with
          | Newton.Converged _ -> true
          | Newton.Diverged _ -> false)
        gmin_ladder
    in
    if gmin_ok then
      match attempt ~gmin:opts.Options.gmin ~sv:source_values x with
      | Newton.Converged k -> k
      | Newton.Diverged msg -> raise (No_convergence msg)
    else begin
      (* source stepping *)
      Array.fill x 0 (Array.length x) 0.;
      let steps = 20 in
      let ok = ref true in
      for s = 1 to steps do
        if !ok then begin
          let alpha = float_of_int s /. float_of_int steps in
          let sv = Array.map (fun v -> alpha *. v) source_values in
          match attempt ~gmin:opts.Options.gmin ~sv x with
          | Newton.Converged _ -> ()
          | Newton.Diverged _ -> ok := false
        end
      done;
      if !ok then
        match attempt ~gmin:opts.Options.gmin ~sv:source_values x with
        | Newton.Converged k -> k
        | Newton.Diverged msg -> raise (No_convergence msg)
      else raise (No_convergence "dc: all continuation strategies failed")
    end

let solve_seeded ~opts sys ws ~overrides ~seed =
  let n = Mna.size sys in
  let x =
    match seed with
    | Some s when Array.length s = n -> Array.copy s
    | Some _ | None -> Array.make n 0.
  in
  let source_values = base_source_values sys overrides in
  let k = solve ~opts sys ws ~source_values ~x in
  make_solution sys x k

let operating_point ?(opts = Options.default) ?(overrides = []) ?seed net =
  let sys = Mna.build net in
  solve_seeded ~opts sys (Newton.workspace sys) ~overrides ~seed

let sweep_many ?(opts = Options.default) ?(overrides = []) net ~sources ~values
    =
  let sys = Mna.build net in
  let known = Array.to_list (Mna.source_names sys) in
  List.iter
    (fun s ->
      if not (List.mem s known) then
        invalid_arg ("Dc.sweep: unknown source " ^ s))
    sources;
  let ws = Newton.workspace sys in
  let seed = ref None in
  Array.map
    (fun v ->
      let overrides = List.map (fun s -> (s, v)) sources @ overrides in
      let sol = solve_seeded ~opts sys ws ~overrides ~seed:!seed in
      seed := Some sol.raw;
      sol)
    values

let sweep ?opts ?overrides net ~source ~values =
  sweep_many ?opts ?overrides net ~sources:[ source ] ~values

module Linalg = Proxim_util.Linalg

type outcome = Converged of int | Diverged of string

type workspace = {
  jac : Linalg.mat;
  res : float array;
  rhs : float array;
  perm : int array;
  scratch : float array;
}

let workspace sys =
  let n = Mna.size sys in
  {
    jac = Linalg.make_mat n;
    res = Array.make n 0.;
    rhs = Array.make n 0.;
    perm = Array.make n 0;
    scratch = Array.make n 0.;
  }

let rec iterate sys ws ~opts ~gmin ~source_values ~cap_companions ~x k =
  if k > opts.Options.newton_max_iter then Diverged "newton: iteration limit"
  else begin
    let { jac; res; rhs; perm; scratch } = ws in
    Mna.assemble sys ~x ~gmin ~source_values ~cap_companions ~jac ~res;
    let n = Array.length rhs in
    for i = 0 to n - 1 do
      rhs.(i) <- -.res.(i)
    done;
    match Linalg.solve_in_place jac rhs ~perm ~scratch with
    | exception Linalg.Singular -> Diverged "newton: singular jacobian"
    | () ->
      let dx = rhs in
      let dx_norm = Linalg.norm_inf dx in
      if not (Float.is_finite dx_norm) then
        Diverged "newton: non-finite update"
      else begin
        (* Damp only the node-voltage components; branch currents may
           legitimately jump by many amps-equivalents in one step. *)
        let nv = Mna.node_unknowns sys in
        let v_norm = ref 0. in
        for i = 0 to nv - 1 do
          v_norm := Float.max !v_norm (Float.abs dx.(i))
        done;
        let scale =
          if !v_norm > opts.Options.newton_dv_limit then
            opts.Options.newton_dv_limit /. !v_norm
          else 1.
        in
        for i = 0 to n - 1 do
          x.(i) <- x.(i) +. (scale *. dx.(i))
        done;
        let res_norm = Linalg.norm_inf res in
        if
          scale = 1.
          && !v_norm < opts.Options.newton_tol_v
          && res_norm < opts.Options.newton_tol_i
        then Converged k
        else
          iterate sys ws ~opts ~gmin ~source_values ~cap_companions ~x (k + 1)
      end
  end

let solve sys ws ~opts ~gmin ~source_values ~cap_companions ~x =
  iterate sys ws ~opts ~gmin ~source_values ~cap_companions ~x 1

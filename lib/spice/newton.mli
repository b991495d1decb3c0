(** Damped Newton–Raphson iteration on an assembled MNA system.

    Shared by the DC and transient engines. *)

type outcome =
  | Converged of int  (** iteration count *)
  | Diverged of string

type workspace
(** The Jacobian, residual, right-hand side and LU buffers of one system.
    Allocate one per analysis and pass it to every {!solve}: the
    iteration itself then allocates nothing.  A workspace belongs to one
    solve at a time. *)

val workspace : Mna.t -> workspace

val solve :
  Mna.t ->
  workspace ->
  opts:Options.t ->
  gmin:float ->
  source_values:float array ->
  cap_companions:Mna.companions option ->
  x:float array ->
  outcome
(** Iterate from the seed in [x], updating it in place.  Each update is
    damped so that no component moves more than [opts.newton_dv_limit].
    Convergence requires both the update and the KCL residual to fall
    under the respective tolerances. *)

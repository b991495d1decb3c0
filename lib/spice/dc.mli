(** DC analyses: operating point and transfer-curve sweeps. *)

type solution = {
  voltages : float array;
      (** node voltages indexed by netlist node id (entry 0, ground, is 0) *)
  branch_currents : float array;  (** per voltage source, branch order *)
  raw : float array;
      (** the underlying MNA unknown vector — reusable as a [seed] *)
  newton_iterations : int;
}

exception No_convergence of string
(** Raised when every continuation strategy fails. *)

val solve :
  ?opts:Options.t ->
  Mna.t ->
  Newton.workspace ->
  source_values:float array ->
  x:float array ->
  int
(** The continuation ladder behind every DC analysis, on a built system:
    solve the operating point for the EMFs [source_values] (branch
    order), seeding plain Newton with [x] and leaving the solution in
    [x].  Falls back to gmin stepping and then source stepping, each
    restarting [x] from zero.  Returns the Newton iterations of the
    final solve; raises {!No_convergence} when every strategy fails. *)

val operating_point :
  ?opts:Options.t ->
  ?overrides:(string * float) list ->
  ?seed:float array ->
  Proxim_circuit.Netlist.t ->
  solution
(** Solve the DC operating point.  Source EMFs default to their waveform
    value at [t = 0]; [overrides] replaces the EMF of the named sources.
    [seed] (a previous solution's [raw] vector) speeds up continuation
    sweeps.  Falls back automatically to gmin stepping and then source
    stepping when plain Newton fails. *)

val sweep :
  ?opts:Options.t ->
  ?overrides:(string * float) list ->
  Proxim_circuit.Netlist.t ->
  source:string ->
  values:float array ->
  solution array
(** [sweep net ~source ~values] computes one operating point per entry of
    [values], overriding the EMF of [source] and seeding each solve with
    the previous solution (continuation).  [overrides] pins the other
    sources.  Raises [Invalid_argument] if [source] does not name a
    voltage source. *)

val sweep_many :
  ?opts:Options.t ->
  ?overrides:(string * float) list ->
  Proxim_circuit.Netlist.t ->
  sources:string list ->
  values:float array ->
  solution array
(** Like {!sweep} but drives all the listed sources with the same swept
    value — this is how the multi-input VTCs of the paper's Figure 2-1 are
    produced (a subset of inputs switching together). *)

(** Modified Nodal Analysis system assembly.

    Internal to the simulator but exposed for white-box tests.  The unknown
    vector is laid out as the voltages of nodes [1 .. node_count-1]
    (ground eliminated) followed by one branch current per voltage source,
    in netlist declaration order.

    Sign conventions: the KCL residual of a node is the sum of currents
    {i leaving} the node; a voltage source's branch current flows from its
    positive terminal through the source to its negative terminal. *)

type t
(** A built system.  It carries the scratch record its MOSFET stamps are
    evaluated into, so one [t] must not be assembled from two domains at
    once; build one per simulation. *)

val build : Proxim_circuit.Netlist.t -> t

val size : t -> int
(** Number of unknowns. *)

val node_unknowns : t -> int
(** Number of node-voltage unknowns (= node_count - 1). *)

val source_count : t -> int

val source_names : t -> string array
(** Branch order of the voltage sources. *)

val source_wave : t -> int -> Proxim_waveform.Pwl.t
(** Waveform of the [i]-th source. *)

val cap_count : t -> int

val cap_farads : t -> int -> float
(** Capacitance of the [i]-th capacitor, in netlist declaration order. *)

val cap_voltage : t -> x:float array -> int -> float
(** Voltage across the [i]-th capacitor ([va - vb]) under state [x]. *)

val voltage : t -> x:float array -> Proxim_circuit.Netlist.node -> float
(** Node voltage under state [x]; ground reads 0. *)

type companions = { geq : float array; ieq : float array }
(** Per-capacitor companion models, indexed like the capacitors: the
    branch current of capacitor [k] is [geq.(k) * vab - ieq.(k)].  Kept
    as two flat float arrays so a transient can refill them in place
    every step. *)

val assemble :
  t ->
  x:float array ->
  gmin:float ->
  source_values:float array ->
  cap_companions:companions option ->
  jac:Proxim_util.Linalg.mat ->
  res:float array ->
  unit
(** Fill [jac] and [res] (both zeroed first) with the linearization of the
    circuit equations at state [x].  Allocates nothing.

    [source_values.(k)] is the instantaneous EMF of branch [k].
    [cap_companions] supplies the capacitor companion models; [None]
    means DC analysis (capacitors open). *)

(** Gate-level combinational designs for the STA example flows.

    A design is a set of cells (instances of {!Proxim_gates.Gate.t})
    wired by named nets.  Each net has exactly one driver (a cell output
    or a primary input); combinational loops are rejected. *)

type cell = {
  name : string;
  gate : Proxim_gates.Gate.t;
  input_nets : string array;  (** one net per gate pin, pin order *)
  output_net : string;
}

type t

val create :
  cells:cell list ->
  primary_inputs:string list ->
  primary_outputs:string list ->
  t
(** Validates: cell names unique, pin arities match the gates, every
    non-primary-input net is driven by exactly one cell, primary outputs
    exist, and the design is acyclic.  Raises [Invalid_argument] with a
    descriptive message otherwise: the first defect, by class in that
    order, and a duplicate or an arity mismatch by cell position.  Every
    check but arity runs in {!Proxim_timing.Graph.build}, the one pass
    that hashes the design's names, on the ids it interns. *)

val cells : t -> cell list
val primary_inputs : t -> string list
val primary_outputs : t -> string list

val fanout_load : ?wire_cap:float -> t -> net:string -> float
(** Capacitive load seen by the driver of [net]: the sum of the input
    capacitances of all cell pins reading it, plus [wire_cap] (default
    20 fF) for the interconnect, plus 50 fF if the net is a primary
    output (pad/probe load). *)

val graph : t -> cell Proxim_timing.Graph.t
(** The design's timing-graph IR: interned nets and cells with adjacency,
    topological order and levels, looked up by id.  The {!Sta}
    propagation engines and the incremental timing analysis annotate it
    directly. *)

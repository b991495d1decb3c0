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
    check but arity runs in {!Proxim_timing.Graph.of_ids}, after
    {!Proxim_timing.Graph.build} has numbered the names. *)

val of_ids :
  net_names:string array ->
  cell_names:string array ->
  gates:Proxim_gates.Gate.t array ->
  cell_inputs:int array array ->
  cell_outputs:int array ->
  primary_inputs:int array ->
  primary_outputs:int array ->
  t
(** {!create} for a netlist already numbered: net [i] is named
    [net_names.(i)], and cell [c] is an instance of [gates.(c)] named
    [cell_names.(c)] reading [cell_inputs.(c)] and driving
    [cell_outputs.(c)].  No name is hashed but to build the graph's name
    tables, and every cell's [input_nets]/[output_net] share the
    [net_names] strings.  The checks, their precedence and their
    messages (["Design.create: ..."]) are {!create}'s.  Given the
    canonical numbering {!Proxim_timing.Graph.build} assigns, the graph
    is the one {!create} builds from the same netlist.
    @raise Invalid_argument also if the per-cell arrays differ in
    length, a net id is out of range, or two nets share a name. *)

val cells : t -> cell list
(** In declaration order, built afresh from the graph's payloads on each
    call. *)

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

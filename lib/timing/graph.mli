(** The shared timing-graph IR.

    One arena holds the interned nets and cells of a gate-level design:
    fanin/fanout adjacency, the driver of every net, a topological order
    and topological levels.  {!Design}, the {!Sta} propagation engines and
    the structural lints all build on this instead of maintaining private
    hash-table graphs and ad-hoc traversals.

    Nets and cells are dense integer ids ([0..net_count-1] and
    [0..cell_count-1]), so per-node annotations are plain arrays — the
    incremental timing engine ({!Timing}) stores its arrival/slew/edge
    annotations that way. *)

(** {1 Generic digraph algorithms}

    Shared by consumers whose graphs are not (yet) well-formed designs —
    the collect-all netlist lints run these over broken netlists with
    duplicate drivers and cycles. *)

val cycles :
  n:int -> succ:(int -> int list) -> roots:int list -> (int * int list) list
(** DFS from each root in order; every back edge reports once as
    [(entry, cycle)] where [entry] is the re-entered node and [cycle]
    lists the member nodes in edge order starting at [entry].  A
    self-loop reports [(u, [u])]. *)

val reachable : n:int -> succ:(int -> int list) -> roots:int list -> bool array
(** Nodes reachable from [roots] (roots included). *)

(** {1 The arena} *)

type 'cell spec = {
  spec_name : string;
  spec_payload : 'cell;
  spec_inputs : string array;  (** input net names, pin order *)
  spec_output : string;
}

type 'cell t

(** Why {!of_ids} (and so {!build}) rejected a netlist, with names as
    the caller spelled them. *)
type defect =
  | Duplicate_cell of { position : int; name : string }
      (** the second cell named [name], at [position] in [cells] *)
  | Driven_twice of string
  | Input_driven of string  (** a primary input driven by a cell *)
  | Undriven_net of string  (** read by a cell, driven by none *)
  | Undriven_output of string
  | Cycle of { through : string }
      (** [through] names the first cell the traversal re-enters *)

exception Malformed of defect

val of_ids :
  net_names:string array ->
  cell_names:string array ->
  payloads:'cell array ->
  cell_inputs:int array array ->
  cell_outputs:int array ->
  primary_inputs:int array ->
  primary_outputs:int array ->
  'cell t
(** The one constructor that checks a graph.  Net [i] is named
    [net_names.(i)]; cell [c] is named [cell_names.(c)], carries
    [payloads.(c)], reads [cell_inputs.(c)] (pin order) and drives
    [cell_outputs.(c)].  The arrays are kept, not copied.

    Precomputes adjacency, topological order (drivers before readers;
    DFS postorder over the cells in declaration order) and levels.  The
    structural checks raise {!Malformed} with the first defect, taking
    the classes in this order and each class in declaration order:
    duplicate cells; nets with two sources ([Driven_twice],
    [Input_driven]); undriven read nets; undriven primary outputs;
    cycles.  Pin arity is the caller's to check.

    Name lookups ({!net_id}, {!cell_id}) go through one flat
    open-addressing [int] array per table, built here over the names
    arrays at load at most 1/2; an entry costs one int and no
    allocation.

    @raise Invalid_argument if the per-cell arrays differ in length, a
    net id is out of range, or two nets share a name — preconditions,
    checked before any {!Malformed} defect. *)

val build :
  cells:'cell spec list ->
  primary_inputs:string list ->
  primary_outputs:string list ->
  'cell t
(** Intern the names, then {!of_ids}.  Net ids follow first
    appearance: primary inputs, cell inputs, cell outputs, primary
    outputs — the canonical numbering the binary netlist format stores.
    The interner is the same flat table, grown by doubling. *)

val net_count : 'cell t -> int
val cell_count : 'cell t -> int
val net_name : 'cell t -> int -> string
val net_id : 'cell t -> string -> int option
val cell_name : 'cell t -> int -> string
val cell_id : 'cell t -> string -> int option
val payload : 'cell t -> int -> 'cell
val cell_inputs : 'cell t -> int -> int array
val cell_output : 'cell t -> int -> int

val driver : 'cell t -> net:int -> int option
(** The cell driving [net]; [None] for sources (primary inputs). *)

val driver_id : 'cell t -> net:int -> int
(** {!driver} without the option: the driving cell id, or [-1] for
    sources.  The propagation hot path reads every input net's driver
    once per evaluation — this form costs one array load and no
    allocation. *)

val iter_readers : 'cell t -> net:int -> (int -> unit) -> unit
(** [iter_readers g ~net f] applies [f] to each cell reading [net], once
    per pin that reads it, in declaration order.  The readers of every
    net are kept in one flat array, so this allocates nothing. *)

val primary_inputs : 'cell t -> int array
val primary_outputs : 'cell t -> int array

val topological : 'cell t -> int array
(** Cells, drivers before readers. *)

val cell_level : 'cell t -> int -> int
(** Topological level: one above the deepest driven input, 0 for cells
    fed by primary inputs only. *)

val level_count : 'cell t -> int

val level : 'cell t -> int -> int array
(** Cells of one level, in topological order.  Cells of a level never
    feed each other, so they can be timed concurrently. *)

val fanin_cone : 'cell t -> cells:int list -> bool array
(** Per-cell membership of the transitive fanin cone of the given cells
    (the cells themselves included) — the set of cells whose outputs can
    possibly influence theirs.  The sensitization engine sizes its
    implication budget against this cone. *)

val fanout_cone : 'cell t -> nets:int list -> cells:int list -> bool array
(** Per-cell membership of the transitive fanout cone of the given nets
    and cells (the cells themselves included) — the set an edit to those
    nodes can possibly affect. *)

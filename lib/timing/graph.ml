(* The shared timing-graph IR: an arena of interned nets and cells with
   fanin/fanout adjacency, topological order and levels, plus the generic
   digraph algorithms (cycle enumeration, reachability) that the lint and
   design layers previously each reimplemented. *)

(* ------------------------------------------------------------------ *)
(* Generic digraph algorithms over nodes 0..n-1                        *)

let cycles ~n ~succ ~roots =
  let state = Array.make n `White in
  let found = ref [] in
  let rec visit u path =
    match state.(u) with
    | `Black -> ()
    | `Gray ->
      (* [u] is on the DFS stack: the edge we just followed closes a
         cycle.  [path] is newest-first from the immediate predecessor of
         this re-entry back to the root; the cycle body is the prefix up
         to (excluding) [u], reversed into edge order. *)
      let rec upto acc = function
        | [] -> acc
        | v :: tl -> if v = u then acc else upto (v :: acc) tl
      in
      found := (u, u :: upto [] path) :: !found
    | `White ->
      state.(u) <- `Gray;
      List.iter (fun v -> visit v (u :: path)) (succ u);
      state.(u) <- `Black
  in
  List.iter (fun r -> visit r []) roots;
  List.rev !found

let reachable ~n ~succ ~roots =
  let seen = Array.make n false in
  let rec go = function
    | [] -> ()
    | u :: tl ->
      let frontier =
        List.fold_left
          (fun acc v ->
            if seen.(v) then acc
            else begin
              seen.(v) <- true;
              v :: acc
            end)
          tl (succ u)
      in
      go frontier
  in
  let roots =
    List.filter
      (fun r ->
        if seen.(r) then false
        else begin
          seen.(r) <- true;
          true
        end)
      roots
  in
  go roots;
  seen

(* ------------------------------------------------------------------ *)
(* The arena                                                           *)

type 'cell spec = {
  spec_name : string;
  spec_payload : 'cell;
  spec_inputs : string array;
  spec_output : string;
}

module Names = Hashtbl.Make (struct
  type t = string
  let equal = String.equal
  let hash = Hashtbl.hash
end)

type 'cell t = {
  net_names : string array;
  net_ids : int Names.t;
  cell_names : string array;
  cell_ids : int Names.t;
  payloads : 'cell array;
  cell_inputs : int array array;  (* cell -> input net ids, pin order *)
  cell_outputs : int array;  (* cell -> output net id *)
  net_driver : int array;  (* net -> driving cell id, or -1 for sources *)
  net_readers : (int * int) array array;  (* net -> (cell, pin), file order *)
  pis : int array;
  pos : int array;
  topo : int array;  (* cells, drivers before readers *)
  cell_levels : int array;
  levels : int array array;  (* level -> cells, topo order within a level *)
}

type defect =
  | Duplicate_cell of { position : int; name : string }
  | Driven_twice of string
  | Input_driven of string
  | Undriven_net of string
  | Undriven_output of string
  | Cycle of { through : string }

exception Malformed of defect

let malformed d = raise (Malformed d)

let build ~cells ~primary_inputs ~primary_outputs =
  let cells = Array.of_list cells in
  let n_cells = Array.length cells in
  (* the one interning pass of a design load: sized up front so a
     million-cell netlist never rehashes *)
  let net_ids = Names.create (n_cells + List.length primary_inputs) in
  let net_names_rev = ref [] in
  let n_nets = ref 0 in
  let intern name =
    match Names.find_opt net_ids name with
    | Some id -> id
    | None ->
      let id = !n_nets in
      incr n_nets;
      Names.add net_ids name id;
      net_names_rev := name :: !net_names_rev;
      id
  in
  let pis = Array.of_list (List.map intern primary_inputs) in
  (* primary inputs are interned first: ids below [n_pi] are sources *)
  let n_pi = !n_nets in
  let cell_ids = Names.create n_cells in
  Array.iteri
    (fun i c ->
      if Names.mem cell_ids c.spec_name then
        malformed (Duplicate_cell { position = i; name = c.spec_name });
      Names.add cell_ids c.spec_name i)
    cells;
  let cell_inputs = Array.map (fun c -> Array.map intern c.spec_inputs) cells in
  let cell_outputs = Array.map (fun c -> intern c.spec_output) cells in
  let pos = Array.of_list (List.map intern primary_outputs) in
  let n_nets = !n_nets in
  let net_names = Array.of_list (List.rev !net_names_rev) in
  let net_driver = Array.make n_nets (-1) in
  Array.iteri
    (fun i out ->
      if net_driver.(out) >= 0 then malformed (Driven_twice net_names.(out));
      if out < n_pi then malformed (Input_driven net_names.(out));
      net_driver.(out) <- i)
    cell_outputs;
  let sourced net = net < n_pi || net_driver.(net) >= 0 in
  Array.iter
    (Array.iter (fun net ->
         if not (sourced net) then malformed (Undriven_net net_names.(net))))
    cell_inputs;
  Array.iter
    (fun net ->
      if not (sourced net) then malformed (Undriven_output net_names.(net)))
    pos;
  let readers_rev = Array.make n_nets [] in
  Array.iteri
    (fun i inputs ->
      Array.iteri
        (fun pin net -> readers_rev.(net) <- (i, pin) :: readers_rev.(net))
        inputs)
    cell_inputs;
  let net_readers = Array.map (fun l -> Array.of_list (List.rev l)) readers_rev in
  (* topological order: DFS postorder over the cells in declaration order,
     fanin first — the traversal {!Design.create} historically used, so
     downstream report orders are unchanged *)
  let topo_rev = ref [] in
  let state = Array.make n_cells `White in
  let rec visit i =
    match state.(i) with
    | `Black -> ()
    | `Gray -> malformed (Cycle { through = cells.(i).spec_name })
    | `White ->
      state.(i) <- `Gray;
      Array.iter
        (fun net ->
          let d = net_driver.(net) in
          if d >= 0 then visit d)
        cell_inputs.(i);
      state.(i) <- `Black;
      topo_rev := i :: !topo_rev
  in
  for i = 0 to n_cells - 1 do
    visit i
  done;
  let topo = Array.of_list (List.rev !topo_rev) in
  (* levels: a cell sits one level above its deepest driven input *)
  let cell_levels = Array.make n_cells 0 in
  Array.iter
    (fun i ->
      let l =
        Array.fold_left
          (fun acc net ->
            let d = net_driver.(net) in
            if d >= 0 then max acc (cell_levels.(d) + 1) else acc)
          0 cell_inputs.(i)
      in
      cell_levels.(i) <- l)
    topo;
  let n_levels =
    Array.fold_left (fun acc l -> max acc (l + 1)) 0 cell_levels
  in
  let level_rev = Array.make n_levels [] in
  (* walk topo backwards so each level list ends up in topo order *)
  for k = Array.length topo - 1 downto 0 do
    let i = topo.(k) in
    level_rev.(cell_levels.(i)) <- i :: level_rev.(cell_levels.(i))
  done;
  let levels = Array.map Array.of_list level_rev in
  {
    net_names;
    net_ids;
    cell_names = Array.map (fun c -> c.spec_name) cells;
    cell_ids;
    payloads = Array.map (fun c -> c.spec_payload) cells;
    cell_inputs;
    cell_outputs;
    net_driver;
    net_readers;
    pis;
    pos;
    topo;
    cell_levels;
    levels;
  }

let net_count t = Array.length t.net_names
let cell_count t = Array.length t.payloads
let net_name t id = t.net_names.(id)
let net_id t name = Names.find_opt t.net_ids name
let cell_name t id = t.cell_names.(id)
let cell_id t name = Names.find_opt t.cell_ids name
let payload t id = t.payloads.(id)
let cell_inputs t id = t.cell_inputs.(id)
let cell_output t id = t.cell_outputs.(id)

let driver t ~net = if t.net_driver.(net) >= 0 then Some t.net_driver.(net) else None
let driver_id t ~net = t.net_driver.(net)

let readers t ~net = t.net_readers.(net)
let primary_inputs t = t.pis
let primary_outputs t = t.pos
let topological t = t.topo
let cell_level t id = t.cell_levels.(id)
let level_count t = Array.length t.levels
let level t i = t.levels.(i)

let fanin_cone t ~cells =
  let drivers i =
    Array.fold_right
      (fun net acc ->
        let d = t.net_driver.(net) in
        if d >= 0 then d :: acc else acc)
      t.cell_inputs.(i) []
  in
  reachable ~n:(cell_count t) ~succ:drivers ~roots:cells

let fanout_cone t ~nets ~cells =
  let dirty = Array.make (cell_count t) false in
  let rec mark_cell i =
    if not dirty.(i) then begin
      dirty.(i) <- true;
      mark_net t.cell_outputs.(i)
    end
  and mark_net net = Array.iter (fun (c, _) -> mark_cell c) t.net_readers.(net) in
  List.iter mark_net nets;
  List.iter mark_cell cells;
  dirty

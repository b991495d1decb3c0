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
(* Name tables                                                         *)

(* A name -> id table is one flat int array of slots over an array of
   names: open addressing with linear probing, each slot an id or
   [empty], the capacity a power of two at least twice the name count.
   A probe compares against [names.(id)], so an entry costs one int and
   inserting one allocates nothing. *)

let empty = -1

let slots_for n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  Array.make !cap empty

(* the slot holding [name], or the empty slot that ends its probe run *)
let probe slots names name =
  let mask = Array.length slots - 1 in
  let i = ref (Hashtbl.hash name land mask) in
  while
    let id = slots.(!i) in
    id <> empty && not (String.equal names.(id) name)
  do
    i := (!i + 1) land mask
  done;
  !i

let find slots names name =
  let id = slots.(probe slots names name) in
  if id = empty then None else Some id

(* The table over [names], or the position of the first name that
   repeats an earlier one. *)
let index names =
  let slots = slots_for (Array.length names) in
  let dup = ref (-1) in
  let i = ref 0 in
  while !dup < 0 && !i < Array.length names do
    let s = probe slots names names.(!i) in
    if slots.(s) = empty then slots.(s) <- !i else dup := !i;
    incr i
  done;
  if !dup < 0 then Ok slots else Error !dup

(* A growing table that numbers names by first appearance. *)
type interner = {
  mutable names : string array;
  mutable count : int;
  mutable slots : int array;
}

let interner n = { names = Array.make (max n 1) ""; count = 0; slots = slots_for n }

let intern t name =
  let s = probe t.slots t.names name in
  let id = t.slots.(s) in
  if id <> empty then id
  else begin
    let id = t.count in
    if id = Array.length t.names then begin
      let names = Array.make (2 * id) "" in
      Array.blit t.names 0 names 0 id;
      t.names <- names
    end;
    t.names.(id) <- name;
    t.count <- id + 1;
    if 2 * t.count <= Array.length t.slots then t.slots.(s) <- id
    else begin
      let slots = slots_for t.count in
      for j = 0 to t.count - 1 do
        slots.(probe slots t.names t.names.(j)) <- j
      done;
      t.slots <- slots
    end;
    id
  end

(* ------------------------------------------------------------------ *)
(* The arena                                                           *)

type 'cell spec = {
  spec_name : string;
  spec_payload : 'cell;
  spec_inputs : string array;
  spec_output : string;
}

type 'cell t = {
  net_names : string array;
  net_slots : int array;  (* name table over [net_names] *)
  cell_names : string array;
  cell_slots : int array;  (* name table over [cell_names] *)
  payloads : 'cell array;
  cell_inputs : int array array;  (* cell -> input net ids, pin order *)
  cell_outputs : int array;  (* cell -> output net id *)
  net_driver : int array;  (* net -> driving cell id, or -1 for sources *)
  (* the cells reading net [n], once per pin, in declaration order:
     [reader_cell] from [reader_start.(n)] to [reader_start.(n + 1)] *)
  reader_start : int array;
  reader_cell : int array;
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

(* [of_ids] once the net-name table exists *)
let assemble ~net_names ~net_slots ~cell_names ~payloads ~cell_inputs
    ~cell_outputs ~primary_inputs:pis ~primary_outputs:pos =
  let n_nets = Array.length net_names in
  let n_cells = Array.length cell_names in
  let cell_slots =
    match index cell_names with
    | Ok slots -> slots
    | Error i -> malformed (Duplicate_cell { position = i; name = cell_names.(i) })
  in
  let is_pi = Bytes.make n_nets '\000' in
  Array.iter (fun net -> Bytes.set is_pi net '\001') pis;
  let net_driver = Array.make n_nets (-1) in
  Array.iteri
    (fun i out ->
      if net_driver.(out) >= 0 then malformed (Driven_twice net_names.(out));
      if Bytes.get is_pi out <> '\000' then malformed (Input_driven net_names.(out));
      net_driver.(out) <- i)
    cell_outputs;
  let sourced net = Bytes.get is_pi net <> '\000' || net_driver.(net) >= 0 in
  (* net [n]'s readers will sit at [reader_start.(n)] onwards *)
  let reader_start = Array.make (n_nets + 1) 0 in
  Array.iter
    (Array.iter (fun net ->
         if not (sourced net) then malformed (Undriven_net net_names.(net));
         reader_start.(net + 1) <- reader_start.(net + 1) + 1))
    cell_inputs;
  Array.iter
    (fun net ->
      if not (sourced net) then malformed (Undriven_output net_names.(net)))
    pos;
  (* readers by count and fill, in declaration order *)
  for net = 1 to n_nets do
    reader_start.(net) <- reader_start.(net) + reader_start.(net - 1)
  done;
  let n_pins = reader_start.(n_nets) in
  let reader_cell = Array.make n_pins 0 in
  let fill = Array.sub reader_start 0 n_nets in
  Array.iteri
    (fun i inputs ->
      for pin = 0 to Array.length inputs - 1 do
        let net = inputs.(pin) in
        let k = fill.(net) in
        reader_cell.(k) <- i;
        fill.(net) <- k + 1
      done)
    cell_inputs;
  (* topological order: DFS postorder over the cells in declaration order,
     fanin first — the traversal {!Design.create} historically used, so
     downstream report orders are unchanged.  A cell finishes after its
     drivers, so its level (one above its deepest driven input, 0 when
     fed by sources only) is set as it finishes. *)
  let topo = Array.make n_cells 0 in
  let cell_levels = Array.make n_cells 0 in
  let n_done = ref 0 in
  (* 0 unvisited, 1 on the DFS stack, 2 finished *)
  let state = Bytes.make n_cells '\000' in
  let rec visit i =
    match Bytes.get state i with
    | '\002' -> ()
    | '\001' -> malformed (Cycle { through = cell_names.(i) })
    | _ ->
      Bytes.set state i '\001';
      let inputs = cell_inputs.(i) in
      let level = ref 0 in
      for pin = 0 to Array.length inputs - 1 do
        let d = net_driver.(inputs.(pin)) in
        if d >= 0 then begin
          visit d;
          if cell_levels.(d) >= !level then level := cell_levels.(d) + 1
        end
      done;
      Bytes.set state i '\002';
      cell_levels.(i) <- !level;
      topo.(!n_done) <- i;
      incr n_done
  in
  for i = 0 to n_cells - 1 do
    visit i
  done;
  let n_levels = ref 0 in
  Array.iter (fun l -> if l >= !n_levels then n_levels := l + 1) cell_levels;
  (* each level's cells in topo order, by count and fill *)
  let fill = Array.make !n_levels 0 in
  Array.iter (fun l -> fill.(l) <- fill.(l) + 1) cell_levels;
  let levels = Array.map (fun k -> Array.make k 0) fill in
  Array.fill fill 0 !n_levels 0;
  Array.iter
    (fun i ->
      let l = cell_levels.(i) in
      levels.(l).(fill.(l)) <- i;
      fill.(l) <- fill.(l) + 1)
    topo;
  {
    net_names;
    net_slots;
    cell_names;
    cell_slots;
    payloads;
    cell_inputs;
    cell_outputs;
    net_driver;
    reader_start;
    reader_cell;
    pis;
    pos;
    topo;
    cell_levels;
    levels;
  }

let of_ids ~net_names ~cell_names ~payloads ~cell_inputs ~cell_outputs
    ~primary_inputs ~primary_outputs =
  let n_nets = Array.length net_names in
  let n_cells = Array.length cell_names in
  if
    Array.length payloads <> n_cells
    || Array.length cell_inputs <> n_cells
    || Array.length cell_outputs <> n_cells
  then invalid_arg "Graph.of_ids: per-cell arrays differ in length";
  let check net =
    if net < 0 || net >= n_nets then
      invalid_arg (Printf.sprintf "Graph.of_ids: net id %d out of range" net)
  in
  Array.iter (Array.iter check) cell_inputs;
  Array.iter check cell_outputs;
  Array.iter check primary_inputs;
  Array.iter check primary_outputs;
  match index net_names with
  | Error i -> invalid_arg ("Graph.of_ids: duplicate net name " ^ net_names.(i))
  | Ok net_slots ->
    assemble ~net_names ~net_slots ~cell_names ~payloads ~cell_inputs
      ~cell_outputs ~primary_inputs ~primary_outputs

let build ~cells ~primary_inputs ~primary_outputs =
  let cells = Array.of_list cells in
  (* sized for a netlist whose nets are mostly cell outputs, so a
     generated design never rehashes *)
  let names = interner (Array.length cells + List.length primary_inputs) in
  let primary_inputs = Array.of_list (List.map (intern names) primary_inputs) in
  let cell_inputs =
    Array.map (fun c -> Array.map (intern names) c.spec_inputs) cells
  in
  let cell_outputs = Array.map (fun c -> intern names c.spec_output) cells in
  let primary_outputs = Array.of_list (List.map (intern names) primary_outputs) in
  assemble
    ~net_names:(Array.sub names.names 0 names.count)
    ~net_slots:names.slots
    ~cell_names:(Array.map (fun c -> c.spec_name) cells)
    ~payloads:(Array.map (fun c -> c.spec_payload) cells)
    ~cell_inputs ~cell_outputs ~primary_inputs ~primary_outputs

let net_count t = Array.length t.net_names
let cell_count t = Array.length t.payloads
let net_name t id = t.net_names.(id)
let net_id t name = find t.net_slots t.net_names name
let cell_name t id = t.cell_names.(id)
let cell_id t name = find t.cell_slots t.cell_names name
let payload t id = t.payloads.(id)
let cell_inputs t id = t.cell_inputs.(id)
let cell_output t id = t.cell_outputs.(id)

let driver t ~net = if t.net_driver.(net) >= 0 then Some t.net_driver.(net) else None
let driver_id t ~net = t.net_driver.(net)

let iter_readers t ~net f =
  for k = t.reader_start.(net) to t.reader_start.(net + 1) - 1 do
    f t.reader_cell.(k)
  done
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
  and mark_net net = iter_readers t ~net mark_cell in
  List.iter mark_net nets;
  List.iter mark_cell cells;
  dirty

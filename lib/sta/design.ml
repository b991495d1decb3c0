module Gate = Proxim_gates.Gate
module Graph = Proxim_timing.Graph

type cell = {
  name : string;
  gate : Gate.t;
  input_nets : string array;
  output_net : string;
}

type t = {
  pis : string list;
  pos : string list;
  po_mask : bool array;  (* net id -> is a primary output, for fanout_load *)
  graph : cell Graph.t;
}

let message = function
  | Graph.Duplicate_cell { name; _ } -> "duplicate cell " ^ name
  | Graph.Driven_twice net -> "net driven twice: " ^ net
  | Graph.Input_driven net -> "primary input driven: " ^ net
  | Graph.Undriven_net net -> "undriven net " ^ net
  | Graph.Undriven_output net -> "undriven primary output " ^ net
  | Graph.Cycle { through } -> "combinational cycle through " ^ through

(* Pin arity is the one check the graph cannot make; it ranks with
   duplicate cells, by position ([arity] is the first mismatch). *)
let validated ~arity build =
  let fail what = invalid_arg ("Design.create: " ^ what) in
  match (build (), arity) with
  | exception Graph.Malformed d -> (
    match (d, arity) with
    | Graph.Duplicate_cell { position; _ }, Some (i, _) when position <= i ->
      fail (message d)
    | _, Some (_, c) -> fail ("arity mismatch on " ^ c)
    | _, None -> fail (message d))
  | _, Some (_, c) -> fail ("arity mismatch on " ^ c)
  | graph, None -> graph

let of_graph ~primary_inputs:pis ~primary_outputs:pos graph =
  let po_mask = Array.make (Graph.net_count graph) false in
  Array.iter (fun net -> po_mask.(net) <- true) (Graph.primary_outputs graph);
  { pis; pos; po_mask; graph }

let create ~cells ~primary_inputs ~primary_outputs =
  let arity =
    List.find_mapi
      (fun i c ->
        if Array.length c.input_nets <> c.gate.Gate.fan_in then Some (i, c.name)
        else None)
      cells
  in
  let spec c =
    { Graph.spec_name = c.name; spec_payload = c; spec_inputs = c.input_nets;
      spec_output = c.output_net }
  in
  validated ~arity (fun () ->
      Graph.build ~cells:(List.map spec cells) ~primary_inputs ~primary_outputs)
  |> of_graph ~primary_inputs ~primary_outputs

let of_ids ~net_names ~cell_names ~gates ~cell_inputs ~cell_outputs
    ~primary_inputs ~primary_outputs =
  let n_nets = Array.length net_names in
  let n_cells = Array.length cell_names in
  if
    Array.length gates <> n_cells
    || Array.length cell_inputs <> n_cells
    || Array.length cell_outputs <> n_cells
  then invalid_arg "Design.of_ids: per-cell arrays differ in length";
  let name net =
    if net < 0 || net >= n_nets then
      invalid_arg (Printf.sprintf "Design.of_ids: net id %d out of range" net);
    net_names.(net)
  in
  let cells =
    Array.init n_cells (fun i ->
        {
          name = cell_names.(i);
          gate = gates.(i);
          input_nets = Array.map name cell_inputs.(i);
          output_net = name cell_outputs.(i);
        })
  in
  let rec arity i =
    if i = n_cells then None
    else if Array.length cell_inputs.(i) <> gates.(i).Gate.fan_in then
      Some (i, cell_names.(i))
    else arity (i + 1)
  in
  let names ids = Array.fold_right (fun net acc -> name net :: acc) ids [] in
  validated ~arity:(arity 0) (fun () ->
      Graph.of_ids ~net_names ~cell_names ~payloads:cells ~cell_inputs
        ~cell_outputs ~primary_inputs ~primary_outputs)
  |> of_graph ~primary_inputs:(names primary_inputs)
       ~primary_outputs:(names primary_outputs)

let cells t = List.init (Graph.cell_count t.graph) (Graph.payload t.graph)
let primary_inputs t = t.pis
let primary_outputs t = t.pos
let graph t = t.graph

let default_wire_cap = 20e-15
let pad_cap = 50e-15

let fanout_load ?(wire_cap = default_wire_cap) t ~net =
  match Graph.net_id t.graph net with
  | None -> wire_cap
  | Some id ->
    let pin_caps = ref 0. in
    Graph.iter_readers t.graph ~net:id (fun c ->
        pin_caps :=
          !pin_caps +. Gate.input_capacitance (Graph.payload t.graph c).gate);
    let pin_caps = !pin_caps in
    let pad = if t.po_mask.(id) then pad_cap else 0. in
    pin_caps +. wire_cap +. pad

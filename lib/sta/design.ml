module Gate = Proxim_gates.Gate
module Graph = Proxim_timing.Graph

type cell = {
  name : string;
  gate : Gate.t;
  input_nets : string array;
  output_net : string;
}

type t = {
  cell_list : cell list;
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

let create ~cells:cell_list ~primary_inputs:pis ~primary_outputs:pos =
  (* pin arity is the one check Graph.build cannot make; it ranks with
     duplicate cells, by position *)
  let arity =
    List.find_mapi
      (fun i c ->
        if Array.length c.input_nets <> c.gate.Gate.fan_in then Some (i, c.name)
        else None)
      cell_list
  in
  let spec c =
    { Graph.spec_name = c.name; spec_payload = c; spec_inputs = c.input_nets;
      spec_output = c.output_net }
  in
  let fail what = invalid_arg ("Design.create: " ^ what) in
  match
    ( Graph.build ~cells:(List.map spec cell_list) ~primary_inputs:pis
        ~primary_outputs:pos,
      arity )
  with
  | exception Graph.Malformed d -> (
    match (d, arity) with
    | Graph.Duplicate_cell { position; _ }, Some (i, _) when position <= i ->
      fail (message d)
    | _, Some (_, c) -> fail ("arity mismatch on " ^ c)
    | _, None -> fail (message d))
  | _, Some (_, c) -> fail ("arity mismatch on " ^ c)
  | graph, None ->
    let po_mask = Array.make (Graph.net_count graph) false in
    Array.iter (fun net -> po_mask.(net) <- true) (Graph.primary_outputs graph);
    { cell_list; pis; pos; po_mask; graph }

let cells t = t.cell_list
let primary_inputs t = t.pis
let primary_outputs t = t.pos
let graph t = t.graph

let default_wire_cap = 20e-15
let pad_cap = 50e-15

let fanout_load ?(wire_cap = default_wire_cap) t ~net =
  match Graph.net_id t.graph net with
  | None -> wire_cap
  | Some id ->
    let pin_caps =
      Array.fold_left
        (fun acc (c, _pin) ->
          acc +. Gate.input_capacitance (Graph.payload t.graph c).gate)
        0. (Graph.readers t.graph ~net:id)
    in
    let pad = if t.po_mask.(id) then pad_cap else 0. in
    pin_caps +. wire_cap +. pad

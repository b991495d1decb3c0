module Netlist = Proxim_circuit.Netlist
module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Pwl = Proxim_waveform.Pwl
module Transient = Proxim_spice.Transient
module Graph = Proxim_timing.Graph

type t = {
  design : Design.t;
  net : Netlist.t;
  node_of_net : (string * Netlist.node) list;
  vdd_node : Netlist.node;
}

let all_nets design =
  let g = Design.graph design in
  List.sort compare (List.init (Graph.net_count g) (Graph.net_name g))

let shared_tech design =
  match Design.cells design with
  | [] -> invalid_arg "Flat.flatten: empty design"
  | first :: rest ->
    let tech = first.Design.gate.Gate.tech in
    List.iter
      (fun (c : Design.cell) ->
        if c.Design.gate.Gate.tech.Tech.name <> tech.Tech.name then
          invalid_arg "Flat.flatten: mixed technology cards")
      rest;
    tech

let flatten ?wire_cap design ~pi_waves =
  let tech = shared_tech design in
  List.iter
    (fun net ->
      if not (List.mem_assoc net pi_waves) then
        invalid_arg ("Flat.flatten: primary input without waveform: " ^ net))
    (Design.primary_inputs design);
  let b = Netlist.create () in
  let vdd_node = Netlist.node b "vdd" in
  let nets = all_nets design in
  let g = Design.graph design in
  let node_of_net = List.map (fun n -> (n, Netlist.node b n)) nets in
  let node net = List.assoc net node_of_net in
  (* cell transistors *)
  List.iter
    (fun (c : Design.cell) ->
      let inputs = Array.map node c.Design.input_nets in
      Gate.emit c.Design.gate ~builder:b
        ~prefix:(c.Design.name ^ "/")
        ~out:(node c.Design.output_net) ~vdd:vdd_node ~inputs)
    (Design.cells design);
  (* per-net loads: gate capacitance of reading pins + wire (+ pad),
     exactly what Design.fanout_load charges the driver with *)
  List.iter
    (fun net_name ->
      let pin_caps = ref 0. in
      Graph.iter_readers g ~net:(Option.get (Graph.net_id g net_name))
        (fun c ->
          pin_caps :=
            !pin_caps +. Gate.input_capacitance (Graph.payload g c).Design.gate);
      let pin_caps = !pin_caps in
      let wire = Design.fanout_load ?wire_cap design ~net:net_name -. pin_caps in
      let total = pin_caps +. wire in
      if total > 0. then
        Netlist.add_capacitor b
          ~name:("cnet_" ^ net_name)
          ~farads:total ~a:(node net_name) ~b:Netlist.ground)
    nets;
  (* sources *)
  Netlist.add_vdc b ~name:"Vdd" ~volts:tech.Tech.vdd ~pos:vdd_node
    ~neg:Netlist.ground;
  List.iter
    (fun pi ->
      let wave = List.assoc pi pi_waves in
      Netlist.add_vsource b ~name:("Vin_" ^ pi) ~wave ~pos:(node pi)
        ~neg:Netlist.ground)
    (Design.primary_inputs design);
  { design; net = Netlist.freeze b; node_of_net; vdd_node }

let simulate ?opts t ~t_stop = Transient.run ?opts t.net ~t_stop

let probe t result ~net =
  match List.assoc_opt net t.node_of_net with
  | Some node -> Transient.probe result node
  | None -> raise Not_found

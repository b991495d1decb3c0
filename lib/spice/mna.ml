module Netlist = Proxim_circuit.Netlist
module Mosfet = Proxim_device.Mosfet

type cap_info = { ca : int; cb : int; farads : float }

type vsrc_info = {
  vname : string;
  pos : int;
  neg : int;
  wave : Proxim_waveform.Pwl.t;
}

type mos_info = { params : Mosfet.params; mg : int; md : int; ms : int }

type res_info = { ra : int; rb : int; conductance : float }

type t = {
  n_nodes : int;  (** unknown node voltages *)
  mosfets : mos_info array;
  resistors : res_info array;
  caps : cap_info array;
  vsrcs : vsrc_info array;
  stamp : Mosfet.eval;  (** reused by every MOSFET evaluation *)
}

type companions = { geq : float array; ieq : float array }

let build net =
  let mosfets = ref [] and resistors = ref [] in
  let caps = ref [] and vsrcs = ref [] in
  Array.iter
    (fun d ->
      match d with
      | Netlist.Mosfet { params; g; d; s; _ } ->
        mosfets := { params; mg = g; md = d; ms = s } :: !mosfets
      | Netlist.Resistor { ohms; a; b; _ } ->
        resistors := { ra = a; rb = b; conductance = 1. /. ohms } :: !resistors
      | Netlist.Capacitor { farads; a; b; _ } ->
        caps := { ca = a; cb = b; farads } :: !caps
      | Netlist.Vsource { name; wave; pos; neg } ->
        vsrcs := { vname = name; pos; neg; wave } :: !vsrcs)
    net.Netlist.devices;
  {
    n_nodes = net.Netlist.node_count - 1;
    mosfets = Array.of_list (List.rev !mosfets);
    resistors = Array.of_list (List.rev !resistors);
    caps = Array.of_list (List.rev !caps);
    vsrcs = Array.of_list (List.rev !vsrcs);
    stamp = { Mosfet.id = 0.; did_dvg = 0.; did_dvd = 0.; did_dvs = 0. };
  }

let node_unknowns t = t.n_nodes
let source_count t = Array.length t.vsrcs
let size t = t.n_nodes + source_count t
let source_names t = Array.map (fun v -> v.vname) t.vsrcs
let source_wave t i = t.vsrcs.(i).wave
let cap_count t = Array.length t.caps
let cap_farads t i = t.caps.(i).farads

let[@inline] volt x n = if n = 0 then 0. else x.(n - 1)

let voltage _t ~x n = volt x n

let cap_voltage t ~x i =
  let c = t.caps.(i) in
  volt x c.ca -. volt x c.cb

(* The stamps are closed top-level helpers, inlined, so that no float is
   boxed and no closure is built per assembly. *)

(* add [g] between the KCL row of [node] and the column of [col] *)
let[@inline] add_j jac node col g =
  if node > 0 && col > 0 then
    jac.(node - 1).(col - 1) <- jac.(node - 1).(col - 1) +. g

let[@inline] add_r res node i =
  if node > 0 then res.(node - 1) <- res.(node - 1) +. i

(* a conductance [g] carrying current [i] from [a] to [b] *)
let[@inline] stamp_branch jac res a b ~i ~g =
  add_r res a i;
  add_r res b (-.i);
  add_j jac a a g;
  add_j jac a b (-.g);
  add_j jac b b g;
  add_j jac b a (-.g)

let assemble t ~x ~gmin ~source_values ~cap_companions ~jac ~res =
  let n = size t in
  for i = 0 to n - 1 do
    res.(i) <- 0.;
    Array.fill jac.(i) 0 n 0.
  done;
  (* gmin from every node to ground *)
  for node = 1 to t.n_nodes do
    add_r res node (gmin *. x.(node - 1));
    add_j jac node node gmin
  done;
  (* resistors *)
  for k = 0 to Array.length t.resistors - 1 do
    let { ra; rb; conductance = g } = t.resistors.(k) in
    stamp_branch jac res ra rb ~i:(g *. (volt x ra -. volt x rb)) ~g
  done;
  (* capacitors through their companion models *)
  (match cap_companions with
   | None -> ()
   | Some { geq; ieq } ->
     for k = 0 to Array.length t.caps - 1 do
       let { ca; cb; _ } = t.caps.(k) in
       let g = geq.(k) in
       stamp_branch jac res ca cb
         ~i:((g *. (volt x ca -. volt x cb)) -. ieq.(k))
         ~g
     done);
  (* MOSFETs (with a gmin drain-source shunt: keeps internal stack nodes
     weakly tied when the whole channel is cut off, which conditions the
     Newton iteration) *)
  let e = t.stamp in
  for k = 0 to Array.length t.mosfets - 1 do
    let { params; mg; md; ms } = t.mosfets.(k) in
    stamp_branch jac res md ms ~i:(gmin *. (volt x md -. volt x ms)) ~g:gmin;
    Mosfet.eval_into params ~vg:(volt x mg) ~vd:(volt x md) ~vs:(volt x ms) e;
    (* [e.id] flows into the drain terminal: it leaves node [md] through
       the channel and re-enters the circuit at node [ms] *)
    add_r res md e.Mosfet.id;
    add_r res ms (-.e.Mosfet.id);
    add_j jac md mg e.Mosfet.did_dvg;
    add_j jac md md e.Mosfet.did_dvd;
    add_j jac md ms e.Mosfet.did_dvs;
    add_j jac ms mg (-.e.Mosfet.did_dvg);
    add_j jac ms md (-.e.Mosfet.did_dvd);
    add_j jac ms ms (-.e.Mosfet.did_dvs)
  done;
  (* voltage sources: KCL coupling plus the branch (EMF) equations *)
  for k = 0 to Array.length t.vsrcs - 1 do
    let { pos; neg; _ } = t.vsrcs.(k) in
    let row = t.n_nodes + k in
    let ib = x.(row) in
    add_r res pos ib;
    add_r res neg (-.ib);
    if pos > 0 then jac.(pos - 1).(row) <- jac.(pos - 1).(row) +. 1.;
    if neg > 0 then jac.(neg - 1).(row) <- jac.(neg - 1).(row) -. 1.;
    res.(row) <- volt x pos -. volt x neg -. source_values.(k);
    if pos > 0 then jac.(row).(pos - 1) <- jac.(row).(pos - 1) +. 1.;
    if neg > 0 then jac.(row).(neg - 1) <- jac.(row).(neg - 1) -. 1.
  done

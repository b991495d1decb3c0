module Vtc = Proxim_vtc.Vtc
module Graph = Proxim_timing.Graph

type loaded = string * Design.t * Vtc.thresholds option

let of_text tech text =
  let raw = Netlist_text.parse_raw tech text in
  Result.map
    (fun (name, design) ->
      (name, design, Option.map fst raw.Netlist_text.raw_thresholds))
    (Netlist_text.of_raw raw)

let load tech path =
  if Netlist_bin.file_is_binary path then Netlist_bin.read_file tech path
  else
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error m -> Error m
    | text -> of_text tech text

let thresholds tech design file_th =
  let g = Design.graph design in
  match file_th with
  | Some th -> th
  | None when Graph.cell_count g > 0 ->
    Vtc.thresholds (Graph.payload g 0).Design.gate
  | None -> (
    match Proxim_gates.Gate.of_name tech "inv" with
    | Ok g -> Vtc.thresholds g
    | Error m -> failwith m)

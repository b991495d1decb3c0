(* Tests for the gate-level design container and the STA modes. *)

module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Design = Proxim_sta.Design
module Graph = Proxim_timing.Graph
module Sta = Proxim_sta.Sta
module Netlist_bin = Proxim_sta.Netlist_bin
module Netlist_file = Proxim_sta.Netlist_file

let tech = Tech.generic_5v
let nand2 = Gate.nand tech ~fan_in:2
let inv = Gate.inverter tech

let cell name gate inputs output =
  { Design.name; gate; input_nets = inputs; output_net = output }

(* two NAND2s feeding a NAND2: a 2-level tree *)
let tree () =
  Design.create
    ~cells:
      [
        cell "u1" nand2 [| "a"; "b" |] "n1";
        cell "u2" nand2 [| "c"; "d" |] "n2";
        cell "u3" nand2 [| "n1"; "n2" |] "y";
      ]
    ~primary_inputs:[ "a"; "b"; "c"; "d" ]
    ~primary_outputs:[ "y" ]

let test_create_and_topo () =
  let d = tree () in
  let g = Design.graph d in
  let topo =
    List.map (Graph.cell_name g) (Array.to_list (Graph.topological g))
  in
  let pos name =
    let rec idx i = function
      | [] -> Alcotest.failf "missing %s" name
      | x :: tl -> if String.equal x name then i else idx (i + 1) tl
    in
    idx 0 topo
  in
  Alcotest.(check bool) "u1 before u3" true (pos "u1" < pos "u3");
  Alcotest.(check bool) "u2 before u3" true (pos "u2" < pos "u3")

let test_create_validation () =
  let dup () =
    Design.create
      ~cells:[ cell "u1" inv [| "a" |] "x"; cell "u1" inv [| "x" |] "y" ]
      ~primary_inputs:[ "a" ] ~primary_outputs:[ "y" ]
  in
  Alcotest.check_raises "duplicate cell"
    (Invalid_argument "Design.create: duplicate cell u1") (fun () ->
      ignore (dup ()));
  let double_drive () =
    Design.create
      ~cells:[ cell "u1" inv [| "a" |] "x"; cell "u2" inv [| "a" |] "x" ]
      ~primary_inputs:[ "a" ] ~primary_outputs:[ "x" ]
  in
  Alcotest.check_raises "double drive"
    (Invalid_argument "Design.create: net driven twice: x") (fun () ->
      ignore (double_drive ()));
  let undriven () =
    Design.create
      ~cells:[ cell "u1" inv [| "ghost" |] "y" ]
      ~primary_inputs:[ "a" ] ~primary_outputs:[ "y" ]
  in
  Alcotest.check_raises "undriven"
    (Invalid_argument "Design.create: undriven net ghost") (fun () ->
      ignore (undriven ()));
  let cyclic () =
    Design.create
      ~cells:
        [ cell "u1" nand2 [| "a"; "y" |] "x"; cell "u2" inv [| "x" |] "y" ]
      ~primary_inputs:[ "a" ] ~primary_outputs:[ "y" ]
  in
  Alcotest.check_raises "cycle"
    (Invalid_argument "Design.create: combinational cycle through u1")
    (fun () -> ignore (cyclic ()))

(* ---- every Design.create message, through every loader ---- *)

(* PXNB encodings of an arbitrary (possibly malformed) netlist, written
   from the format description rather than by Netlist_bin.write_channel,
   which only serializes valid designs.  Version 1 spells every pin as a
   net name; version 2 writes the net table once, in first-appearance
   order over primary inputs, cell inputs, cell outputs and primary
   outputs, and every pin as an id into it. *)
let pxnb_of ~version ~cells ~pis ~pos =
  let b = Buffer.create 256 in
  let rec varint n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      varint (n lsr 7)
    end
  in
  let str s =
    varint (String.length s);
    Buffer.add_string b s
  in
  let list f l =
    varint (List.length l);
    List.iter f l
  in
  let ids = Hashtbl.create 16 in
  let table = ref [] in
  let id net =
    match Hashtbl.find_opt ids net with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids net i;
      table := net :: !table;
      i
  in
  List.iter (fun n -> ignore (id n)) pis;
  List.iter (fun c -> Array.iter (fun n -> ignore (id n)) c.Design.input_nets) cells;
  List.iter (fun c -> ignore (id c.Design.output_net)) cells;
  List.iter (fun n -> ignore (id n)) pos;
  (* a pin: its name in v1, its id in v2 *)
  let net n = if version = 1 then str n else varint (id n) in
  Buffer.add_string b "PXNB";
  Buffer.add_char b (Char.chr version);
  str "bad";
  Buffer.add_char b '\x00' (* no thresholds *);
  let gates =
    List.sort_uniq compare (List.map (fun c -> c.Design.gate.Gate.name) cells)
  in
  list str gates;
  if version = 2 then list str (List.rev !table);
  list net pis;
  list net pos;
  list
    (fun c ->
      let name = c.Design.gate.Gate.name in
      varint (Option.get (List.find_index (String.equal name) gates));
      str c.Design.name;
      if version = 1 then str c.Design.output_net
      else varint (id c.Design.output_net);
      list net (Array.to_list c.Design.input_nets))
    cells;
  Buffer.add_char b '\xED';
  Buffer.contents b

let text_of ~cells ~pis ~pos =
  let line c =
    Printf.sprintf "cell %s %s %s -> %s\n" c.Design.name c.Design.gate.Gate.name
      (String.concat " " (Array.to_list c.Design.input_nets))
      c.Design.output_net
  in
  String.concat ""
    ([ "design bad\n"; "input " ^ String.concat " " pis ^ "\n";
       "output " ^ String.concat " " pos ^ "\n" ]
    @ List.map line cells @ [ "end\n" ])

let create_error ~cells ~pis ~pos =
  match Design.create ~cells ~primary_inputs:pis ~primary_outputs:pos with
  | _ -> Ok ()
  | exception Invalid_argument m -> Error m

let bin_error ~version ~cells ~pis ~pos =
  let path = Filename.temp_file "proxim_design" ".pxb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (pxnb_of ~version ~cells ~pis ~pos));
      In_channel.with_open_bin path (fun ic ->
          Result.map ignore (Netlist_bin.read_channel tech ic)))

let text_error ~cells ~pis ~pos =
  Result.map ignore (Netlist_file.of_text tech (text_of ~cells ~pis ~pos))

(* [expect] from Design.create and both PXNB versions alike; the text
   loader too, unless the netlist has an arity mismatch, which its
   scanner reports first with a line number ([text], pinned
   separately). *)
let check_defect ?text what ~cells ~pis ~pos expect =
  let result = Alcotest.(result unit string) in
  Alcotest.check result (what ^ ": Design.create") (Error expect)
    (create_error ~cells ~pis ~pos);
  Alcotest.check result (what ^ ": PXNB v1") (Error expect)
    (bin_error ~version:1 ~cells ~pis ~pos);
  Alcotest.check result (what ^ ": PXNB v2") (Error expect)
    (bin_error ~version:2 ~cells ~pis ~pos);
  Alcotest.check result (what ^ ": text")
    (Error (Option.value text ~default:expect))
    (text_error ~cells ~pis ~pos)

let test_create_messages_every_loader () =
  let a = [ "a" ] in
  (* one defect each *)
  check_defect "duplicate cell"
    ~cells:[ cell "u1" inv [| "a" |] "x"; cell "u1" inv [| "x" |] "y" ]
    ~pis:a ~pos:[ "y" ] "Design.create: duplicate cell u1";
  check_defect "arity mismatch"
    ~text:"line 4:9: gate nand2 wants 2 inputs, got 1"
    ~cells:[ cell "u1" nand2 [| "a" |] "y" ]
    ~pis:a ~pos:[ "y" ] "Design.create: arity mismatch on u1";
  check_defect "driven twice"
    ~cells:[ cell "u1" inv [| "a" |] "x"; cell "u2" inv [| "a" |] "x" ]
    ~pis:a ~pos:[ "x" ] "Design.create: net driven twice: x";
  check_defect "primary input driven"
    ~cells:[ cell "u1" inv [| "a" |] "b" ]
    ~pis:[ "a"; "b" ] ~pos:[ "b" ] "Design.create: primary input driven: b";
  check_defect "undriven net"
    ~cells:[ cell "u1" inv [| "ghost" |] "y" ]
    ~pis:a ~pos:[ "y" ] "Design.create: undriven net ghost";
  check_defect "undriven primary output"
    ~cells:[ cell "u1" inv [| "a" |] "y" ]
    ~pis:a ~pos:[ "y"; "z" ] "Design.create: undriven primary output z";
  check_defect "cycle"
    ~cells:[ cell "u1" nand2 [| "a"; "y" |] "x"; cell "u2" inv [| "x" |] "y" ]
    ~pis:a ~pos:[ "y" ] "Design.create: combinational cycle through u1";
  (* two defects: which one wins.  Duplicates and arity mismatches are
     one class, reported in cell order (a duplicate first when one cell
     has both). *)
  check_defect "duplicate before a later arity mismatch"
    ~text:"line 6:9: gate nand2 wants 2 inputs, got 1"
    ~cells:
      [ cell "u1" inv [| "a" |] "x"; cell "u1" inv [| "x" |] "y";
        cell "u2" nand2 [| "y" |] "z" ]
    ~pis:a ~pos:[ "z" ] "Design.create: duplicate cell u1";
  check_defect "arity mismatch before a later duplicate"
    ~text:"line 4:9: gate nand2 wants 2 inputs, got 1"
    ~cells:
      [ cell "u0" nand2 [| "a" |] "w"; cell "u1" inv [| "w" |] "x";
        cell "u1" inv [| "x" |] "y" ]
    ~pis:a ~pos:[ "y" ] "Design.create: arity mismatch on u0";
  check_defect "duplicate and arity mismatch on one cell"
    ~text:"line 5:9: gate nand2 wants 2 inputs, got 1"
    ~cells:[ cell "u1" inv [| "a" |] "x"; cell "u1" nand2 [| "x" |] "y" ]
    ~pis:a ~pos:[ "y" ] "Design.create: duplicate cell u1";
  check_defect "arity mismatch before an earlier double drive"
    ~text:"line 6:9: gate nand2 wants 2 inputs, got 1"
    ~cells:
      [ cell "u1" inv [| "a" |] "x"; cell "u2" inv [| "a" |] "x";
        cell "u3" nand2 [| "x" |] "y" ]
    ~pis:a ~pos:[ "y" ] "Design.create: arity mismatch on u3";
  (* double drives and driven inputs are one class, in cell order *)
  check_defect "driven input before a later double drive"
    ~cells:
      [ cell "u1" inv [| "a" |] "b"; cell "u2" inv [| "a" |] "x";
        cell "u3" inv [| "a" |] "x" ]
    ~pis:[ "a"; "b" ] ~pos:[ "x" ] "Design.create: primary input driven: b";
  check_defect "double drive before a later driven input"
    ~cells:
      [ cell "u1" inv [| "a" |] "x"; cell "u2" inv [| "a" |] "x";
        cell "u3" inv [| "a" |] "b" ]
    ~pis:[ "a"; "b" ] ~pos:[ "x" ] "Design.create: net driven twice: x";
  check_defect "double drive before an earlier undriven net"
    ~cells:
      [ cell "u1" inv [| "ghost" |] "y"; cell "u2" inv [| "a" |] "x";
        cell "u3" inv [| "a" |] "x" ]
    ~pis:a ~pos:[ "y" ] "Design.create: net driven twice: x";
  check_defect "undriven net before an undriven output"
    ~cells:[ cell "u1" inv [| "ghost" |] "y" ]
    ~pis:a ~pos:[ "z"; "y" ] "Design.create: undriven net ghost";
  check_defect "undriven output before a cycle"
    ~cells:[ cell "u1" nand2 [| "a"; "y" |] "x"; cell "u2" inv [| "x" |] "y" ]
    ~pis:a ~pos:[ "y"; "z" ] "Design.create: undriven primary output z";
  check_defect "undriven net inside a cycle"
    ~cells:
      [ cell "u1" nand2 [| "ghost"; "y" |] "x"; cell "u2" inv [| "x" |] "y" ]
    ~pis:a ~pos:[ "y" ] "Design.create: undriven net ghost"

let test_fanout_load () =
  let d = tree () in
  (* n1 feeds one nand2 pin + default wire cap *)
  let expected = Gate.input_capacitance nand2 +. 20e-15 in
  Alcotest.(check (float 1e-18)) "internal net" expected
    (Design.fanout_load d ~net:"n1");
  (* y is a primary output: wire + pad *)
  Alcotest.(check (float 1e-18)) "po net" (20e-15 +. 50e-15)
    (Design.fanout_load d ~net:"y");
  let g = Design.graph d in
  let n1 = Option.get (Graph.net_id g "n1") in
  Alcotest.(check bool) "driver lookup" true
    (match Graph.driver g ~net:n1 with
     | Some c -> String.equal (Graph.cell_name g c) "u1"
     | None -> false);
  let readers = ref 0 in
  Graph.iter_readers g ~net:n1 (fun _ -> incr readers);
  Alcotest.(check int) "readers" 1 !readers;
  Alcotest.(check (float 0.)) "a net the design never mentions" 20e-15
    (Design.fanout_load d ~net:"nowhere")

let thresholds = lazy (Vtc.thresholds ~points:201 nand2)

let test_analyze_propagates () =
  let d = tree () in
  let th = Lazy.force thresholds in
  let models = (Sta.oracle_factory d th).models in
  let arr t = { Sta.time = t; slew = 200e-12; edge = Measure.Rise } in
  let pi = [ ("a", arr 0.); ("b", arr 20e-12); ("c", arr 0.); ("d", arr 10e-12) ] in
  let report = Sta.analyze ~mode:Sta.Classic ~models ~thresholds:th d ~pi in
  (match report.Sta.critical_po with
   | Some (net, a) ->
     Alcotest.(check string) "critical is y" "y" net;
     Alcotest.(check bool) "positive time" true (a.Sta.time > 0.);
     Alcotest.(check bool) "rise in, rise out after 2 inversions" true
       (a.Sta.edge = Measure.Rise)
   | None -> Alcotest.fail "no critical PO");
  (* every internal net got an arrival *)
  let nets = List.map fst report.Sta.arrivals in
  List.iter
    (fun n -> Alcotest.(check bool) n true (List.mem n nets))
    [ "n1"; "n2"; "y" ]

let test_proximity_differs_from_classic () =
  let d = tree () in
  let th = Lazy.force thresholds in
  let models = (Sta.oracle_factory d th).models in
  (* near-simultaneous falling inputs at the NAND inputs: classic (max of
     single-input delays) must disagree with proximity-aware timing *)
  let arr t = { Sta.time = t; slew = 300e-12; edge = Measure.Fall } in
  let pi = [ ("a", arr 0.); ("b", arr 10e-12); ("c", arr 0.); ("d", arr 5e-12) ] in
  let classic = Sta.analyze ~mode:Sta.Classic ~models ~thresholds:th d ~pi in
  let prox = Sta.analyze ~mode:Sta.Proximity ~models ~thresholds:th d ~pi in
  match (classic.Sta.critical_po, prox.Sta.critical_po) with
  | Some (_, ac), Some (_, ap) ->
    Alcotest.(check bool) "different arrival" true
      (Float.abs (ac.Sta.time -. ap.Sta.time) > 1e-12)
  | _, _ -> Alcotest.fail "missing PO arrival"

let test_quiet_inputs_stay_quiet () =
  let d = tree () in
  let th = Lazy.force thresholds in
  let models = (Sta.oracle_factory d th).models in
  (* only the left NAND switches; n2 and u3 still see one event through n1 *)
  let arr t = { Sta.time = t; slew = 200e-12; edge = Measure.Fall } in
  let pi = [ ("a", arr 0.); ("b", arr 10e-12) ] in
  let report = Sta.analyze ~mode:Sta.Proximity ~models ~thresholds:th d ~pi in
  let nets = List.map fst report.Sta.arrivals in
  Alcotest.(check bool) "n2 quiet" false (List.mem "n2" nets);
  Alcotest.(check bool) "n1 switched" true (List.mem "n1" nets);
  Alcotest.(check bool) "y switched" true (List.mem "y" nets)

let test_critical_path_and_slack () =
  let d = tree () in
  let th = Lazy.force thresholds in
  let models = (Sta.oracle_factory d th).models in
  let arr t = { Sta.time = t; slew = 250e-12; edge = Measure.Fall } in
  (* make d clearly the slowest input so the path is d -> n2 -> y *)
  let pi = [ ("a", arr 0.); ("b", arr 0.); ("c", arr 0.); ("d", arr 150e-12) ] in
  let report = Sta.analyze ~mode:Sta.Classic ~models ~thresholds:th d ~pi in
  let path = Sta.critical_path report ~po:"y" in
  Alcotest.(check (list string)) "path" [ "y"; "n2"; "d" ] path;
  Alcotest.(check (list string)) "unknown po" []
    (Sta.critical_path report ~po:"nope");
  let slacks = Sta.po_slacks d report ~required:1e-9 in
  (match slacks with
   | [ ("y", slack) ] ->
     (match report.Sta.critical_po with
      | Some (_, a) ->
        Alcotest.(check (float 1e-15)) "slack" (1e-9 -. a.Sta.time) slack
      | None -> Alcotest.fail "no critical po")
   | _ -> Alcotest.fail "expected one po slack")

(* Sta.po_slacks indexes the arrivals once; it must agree exactly with
   the per-output List.assoc_opt scan it replaced, here on a design whose
   outputs include a primary input, a quiet net and an internal net, and
   on reports carrying a net twice (the first binding wins) *)
let test_po_slacks_matches_assoc () =
  let d =
    Design.create
      ~cells:
        [
          cell "u1" nand2 [| "a"; "b" |] "n1";
          cell "u2" nand2 [| "c"; "d" |] "n2";
          cell "u3" nand2 [| "n1"; "n2" |] "y";
        ]
      ~primary_inputs:[ "a"; "b"; "c"; "d" ]
      ~primary_outputs:[ "y"; "a"; "n2"; "n1"; "d" ]
  in
  let old_po_slacks design (report : Sta.report) ~required =
    Design.primary_outputs design
    |> List.filter_map (fun net ->
         Option.map
           (fun (a : Sta.arrival) -> (net, required -. a.Sta.time))
           (List.assoc_opt net report.Sta.arrivals))
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  let th = Lazy.force thresholds in
  let { Sta.models; _ } = Sta.synthetic_factory () in
  let arr t = { Sta.time = t; slew = 200e-12; edge = Measure.Fall } in
  (* c and d stay quiet, so n2 never switches *)
  let pi = [ ("a", arr 0.); ("b", arr 30e-12) ] in
  let report = Sta.analyze ~models ~thresholds:th d ~pi in
  let dup = ("a", arr 500e-12) and late_y = ("y", arr 1e-9) in
  let reports =
    [
      report;
      { report with Sta.arrivals = dup :: report.Sta.arrivals };
      { report with Sta.arrivals = report.Sta.arrivals @ [ dup; late_y ] };
      { report with Sta.arrivals = [] };
    ]
  in
  List.iteri
    (fun i r ->
      List.iter
        (fun required ->
          Alcotest.(check (list (pair string (float 0.))))
            (Printf.sprintf "report %d, required %g" i required)
            (old_po_slacks d r ~required)
            (Sta.po_slacks d r ~required))
        [ 0.; 1e-9; -2e-10 ])
    reports;
  Alcotest.(check int) "the PI output and two switching nets" 3
    (List.length (Sta.po_slacks d report ~required:0.))

(* the critical output is the first latest switching one in primary
   output order, a repeated output included *)
let test_critical_po_first_max () =
  let th = Lazy.force thresholds in
  let pi = [ ("a", { Sta.time = 0.; slew = 2e-10; edge = Measure.Fall }) ] in
  let critical pos =
    let d =
      Design.create
        ~cells:
          [ cell "u1" inv [| "a" |] "y1"; cell "u2" inv [| "a" |] "y2";
            cell "u3" inv [| "y1" |] "z" ]
        ~primary_inputs:[ "a" ] ~primary_outputs:pos
    in
    let { Sta.models; _ } = Sta.synthetic_factory () in
    Option.map fst (Sta.analyze ~models ~thresholds:th d ~pi).Sta.critical_po
  in
  let check what pos expect =
    Alcotest.(check (option string)) what expect (critical pos)
  in
  check "tie: the first listed" [ "y2"; "y1"; "y2" ] (Some "y2");
  check "tie: listed the other way" [ "y1"; "y2" ] (Some "y1");
  check "repeats of the latest" [ "y1"; "z"; "y2"; "z" ] (Some "z");
  check "a primary input output" [ "a" ] (Some "a")

let test_mixed_edges_rejected () =
  let d = tree () in
  let th = Lazy.force thresholds in
  let models = (Sta.oracle_factory d th).models in
  let pi =
    [
      ("a", { Sta.time = 0.; slew = 2e-10; edge = Measure.Rise });
      ("b", { Sta.time = 0.; slew = 2e-10; edge = Measure.Fall });
    ]
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sta.analyze ~models ~thresholds:th d ~pi);
       false
     with Sta.Mixed_input_edges { cell = _ } -> true)

let () =
  Alcotest.run "sta"
    [
      ( "design",
        [
          Alcotest.test_case "topological" `Quick test_create_and_topo;
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "validation messages, every loader" `Quick
            test_create_messages_every_loader;
          Alcotest.test_case "fanout load" `Quick test_fanout_load;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "propagation" `Slow test_analyze_propagates;
          Alcotest.test_case "proximity differs" `Slow
            test_proximity_differs_from_classic;
          Alcotest.test_case "quiet inputs" `Slow test_quiet_inputs_stay_quiet;
          Alcotest.test_case "critical path + slack" `Slow
            test_critical_path_and_slack;
          Alcotest.test_case "mixed edges" `Quick test_mixed_edges_rejected;
          Alcotest.test_case "po slacks match assoc scan" `Quick
            test_po_slacks_matches_assoc;
          Alcotest.test_case "critical output: first latest" `Quick
            test_critical_po_first_max;
        ] );
    ]

(* proxim: command-line front end to the proximity delay library.

   $ proxim vtc nand3
   $ proxim delay nand3 --pin a --edge fall --tau 500
   $ proxim proximity nand3 a:fall:500:0 b:fall:100:50
   $ proxim glitch nand3 --tau-fall 500 --tau-rise 100 --find-min
   $ proxim sta design.ntl --pi a:fall:500:0 --pi b:fall:100:50 --paths 3
   $ proxim sta design.ntl --pi a:fall:500:0 --eco pi:a:fall:200:0 --verify-eco
   $ proxim verify design.ntl --pi a:fall:500:0 --pi b:fall:100:50 --pi-window 25
   $ proxim storage --fan-in 4
   $ proxim lint --format json design.ntl store.txt *)

module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Models = Proxim_macromodel.Models
module Proximity = Proxim_core.Proximity
module Inertial = Proxim_core.Inertial
module Storage = Proxim_core.Storage
module Collapse = Proxim_baseline.Collapse
module Obs_metrics = Proxim_obs.Metrics
module Obs_trace = Proxim_obs.Trace

let ps s = s *. 1e12

let pin_of_string gate s =
  let fail () =
    Error (`Msg (Printf.sprintf "unknown pin %s (gate has %d pins: a..%s)" s
                   gate.Gate.fan_in
                   (Gate.pin_name (gate.Gate.fan_in - 1))))
  in
  if String.length s = 1 then begin
    let i = Char.code s.[0] - Char.code 'a' in
    if i >= 0 && i < gate.Gate.fan_in then Ok i else fail ()
  end
  else fail ()

let edge_of_string = function
  | "rise" | "r" | "rising" -> Ok Measure.Rise
  | "fall" | "f" | "falling" -> Ok Measure.Fall
  | s -> Error (`Msg (Printf.sprintf "unknown edge %s (rise|fall)" s))

(* The EDGE:TAU_PS:CROSS_PS core every event spec ends with — shared by
   --event (pin-prefixed), --pi (net-prefixed), --pi-all (bare) and the
   eco specs, so a malformed edge or number yields one message and one
   exit code (2) whatever the subcommand.  [spec] is the caller's whole
   original argument, quoted verbatim in the diagnostic. *)
let parse_edge_tau_t ~spec edge_s tau_s t_s =
  match edge_of_string edge_s with
  | Error e -> Error e
  | Ok edge -> (
    match (float_of_string_opt tau_s, float_of_string_opt t_s) with
    | Some tau_ps, Some t_ps -> Ok (edge, tau_ps *. 1e-12, t_ps *. 1e-12)
    | None, _ | _, None ->
      Error (`Msg (Printf.sprintf "bad numbers in event %s" spec)))

(* exit code for a malformed event/eco spec on every subcommand *)
let usage_error m =
  prerr_endline m;
  2

let with_gate name f =
  let tech = Tech.generic_5v in
  match Gate.of_name tech name with
  | Error m ->
    prerr_endline m;
    1
  | Ok gate -> f gate

(* ------------------------------------------------------------------ *)
(* vtc                                                                 *)

let run_vtc gate_name =
  with_gate gate_name (fun gate ->
    let fam = Vtc.family ~points:301 gate in
    Printf.printf "VTC family of %s:\n" gate.Gate.name;
    List.iter (fun c -> Format.printf "  %a@." Vtc.pp_curve c) fam;
    let th = Vtc.choose fam in
    Printf.printf "chosen thresholds: Vil = %.3f V, Vih = %.3f V\n" th.Vtc.vil
      th.Vtc.vih;
    0)

(* ------------------------------------------------------------------ *)
(* delay                                                               *)

let run_delay gate_name pin_s edge_s tau_ps load_ff =
  with_gate gate_name (fun gate ->
    match (pin_of_string gate pin_s, edge_of_string edge_s) with
    | Error (`Msg m), _ | _, Error (`Msg m) ->
      prerr_endline m;
      1
    | Ok pin, Ok edge ->
      let th = Vtc.thresholds gate in
      let load = Option.map (fun f -> f *. 1e-15) load_ff in
      let obs =
        Measure.single_input ?load gate th ~pin ~edge ~tau:(tau_ps *. 1e-12)
      in
      Printf.printf
        "%s pin %s %s tau=%.0fps: delay = %.1f ps, output transition = %.1f \
         ps\n"
        gate.Gate.name pin_s edge_s tau_ps
        (ps obs.Measure.delay)
        (ps obs.Measure.out_transition);
      0)

(* ------------------------------------------------------------------ *)
(* proximity                                                           *)

let parse_event gate s =
  match String.split_on_char ':' s with
  | [ pin_s; edge_s; tau_s; t_s ] -> (
    match (pin_of_string gate pin_s, parse_edge_tau_t ~spec:s edge_s tau_s t_s)
    with
    | Error e, _ | _, Error e -> Error e
    | Ok pin, Ok (edge, tau, cross_time) ->
      Ok { Proximity.pin; edge; tau; cross_time })
  | _ ->
    Error
      (`Msg
        (Printf.sprintf
           "bad event %s (expected pin:edge:tau_ps:cross_ps, e.g. \
            a:fall:500:0)"
           s))

let run_proximity gate_name event_specs baselines =
  with_gate gate_name (fun gate ->
    let rec parse_all acc = function
      | [] -> Ok (List.rev acc)
      | s :: tl -> (
        match parse_event gate s with
        | Ok e -> parse_all (e :: acc) tl
        | Error e -> Error e)
    in
    match parse_all [] event_specs with
    | Error (`Msg m) -> usage_error m
    | Ok [] -> usage_error "need at least one event"
    | Ok events ->
      (* shift all events so every ramp starts at positive time *)
      let max_tau =
        List.fold_left
          (fun acc (e : Proximity.event) -> Float.max acc e.Proximity.tau)
          0. events
      in
      let min_cross =
        List.fold_left
          (fun acc (e : Proximity.event) -> Float.min acc e.Proximity.cross_time)
          infinity events
      in
      let shift = max_tau +. 0.3e-9 -. min_cross in
      let events =
        List.map
          (fun (e : Proximity.event) ->
            { e with Proximity.cross_time = e.Proximity.cross_time +. shift })
          events
      in
      let th = Vtc.thresholds gate in
      let models = Models.of_oracle gate th in
      let r = Proximity.evaluate models events in
      let stimuli =
        List.map
          (fun (e : Proximity.event) ->
            ( e.Proximity.pin,
              { Measure.edge = e.Proximity.edge; tau = e.Proximity.tau;
                cross_time = e.Proximity.cross_time } ))
          events
      in
      let golden =
        Measure.multi_input gate th ~stimuli ~ref_pin:r.Proximity.ref_pin
      in
      Printf.printf "dominant input: %s\n" (Gate.pin_name r.Proximity.ref_pin);
      Printf.printf "inputs inside the proximity window: %d of %d\n"
        r.Proximity.used_inputs (List.length events);
      Printf.printf "ProximityDelay : delay = %8.1f ps  transition = %8.1f ps\n"
        (ps r.Proximity.delay)
        (ps r.Proximity.out_transition);
      Printf.printf "golden (SPICE) : delay = %8.1f ps  transition = %8.1f ps\n"
        (ps golden.Measure.delay)
        (ps golden.Measure.out_transition);
      Printf.printf "model error    : delay %+.2f%%, transition %+.2f%%\n"
        ((r.Proximity.delay -. golden.Measure.delay)
         /. golden.Measure.delay *. 100.)
        ((r.Proximity.out_transition -. golden.Measure.out_transition)
         /. golden.Measure.out_transition *. 100.);
      if baselines then begin
        let show variant name =
          let p = Collapse.predict variant gate th ~events in
          let delay = p.Collapse.out_cross -. r.Proximity.ref_cross in
          Printf.printf
            "%-15s: delay = %8.1f ps  transition = %8.1f ps  (delay err \
             %+.2f%%)\n"
            name (ps delay)
            (ps p.Collapse.out_transition)
            ((delay -. golden.Measure.delay) /. golden.Measure.delay *. 100.)
        in
        show Collapse.Jun "Jun collapse";
        show Collapse.Nabavi_lishi "Nabavi-Lishi"
      end;
      0)

(* ------------------------------------------------------------------ *)
(* glitch                                                              *)

let run_glitch gate_name fall_pin_s rise_pin_s tau_fall_ps tau_rise_ps sep_ps
    find_min =
  with_gate gate_name (fun gate ->
    match (pin_of_string gate fall_pin_s, pin_of_string gate rise_pin_s) with
    | Error (`Msg m), _ | _, Error (`Msg m) ->
      prerr_endline m;
      1
    | Ok fall_pin, Ok rise_pin ->
      let th = Vtc.thresholds gate in
      let tau_fall = tau_fall_ps *. 1e-12 in
      let tau_rise = tau_rise_ps *. 1e-12 in
      if find_min then begin
        let s =
          Inertial.minimum_valid_separation gate th ~fall_pin ~rise_pin
            ~tau_fall ~tau_rise
        in
        Printf.printf
          "minimum separation for a full output transition: %.1f ps\n\
           (inertial delay: %.1f ps)\n"
          (ps s) (ps (-.s));
        0
      end
      else begin
        let sep = sep_ps *. 1e-12 in
        let g =
          Inertial.glitch gate th ~fall_pin ~rise_pin ~tau_fall ~tau_rise ~sep
        in
        Printf.printf
          "glitch extreme: %.3f V at t = %.1f ps; output %s a transition\n"
          g.Inertial.v_extreme (ps g.Inertial.t_extreme)
          (if g.Inertial.full_swing then "completes" else "does not complete");
        0
      end)

(* ------------------------------------------------------------------ *)
(* storage                                                             *)

let run_storage fan_in points =
  Format.printf "%a"
    (fun ppf () -> Storage.pp_comparison ppf ~fan_in ~points_per_axis:points)
    ();
  0

(* ------------------------------------------------------------------ *)
(* lint                                                                *)


module Diagnostic = Proxim_lint.Diagnostic
module Netlist_lint = Proxim_lint.Netlist_lint
module Model_lint = Proxim_lint.Model_lint
module Store = Proxim_macromodel.Store

let print_code_table () =
  List.iter
    (fun c ->
      Printf.printf "%-6s %-8s %s\n" (Diagnostic.code_name c)
        (Diagnostic.severity_name (Diagnostic.default_severity c))
        (Diagnostic.code_doc c))
    Diagnostic.all_codes;
  0

(* a binary (PXNB) netlist has no raw text form for the line-numbered
   passes; re-render the decoded design to the text format and lint
   that, so the same structural checks apply to both encodings (line
   numbers then refer to the canonical rendering) *)
let lint_binary ~fanout_limit file =
  match Proxim_sta.Netlist_bin.read_file Tech.generic_5v file with
  | Error m -> [ Diagnostic.make ~file PX100 "unreadable binary netlist: %s" m ]
  | Ok (name, design, _th) ->
    let options = { Netlist_lint.fanout_limit } in
    Netlist_lint.check_text ~options ~file Tech.generic_5v
      (Proxim_sta.Netlist_text.to_string ~name design)

let lint_file ~fanout_limit file =
  if
    try Proxim_sta.Netlist_bin.file_is_binary file
    with Sys_error _ -> false
  then lint_binary ~fanout_limit file
  else
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error m -> [ Diagnostic.make ~file PX100 "%s" m ]
  | text ->
    let is_store =
      String.length text >= 15 && String.sub text 0 15 = "proxim-store-v1"
    in
    if is_store then
      match Store.load text with
      | exception Failure m ->
        [ Diagnostic.make ~file PX100 "unreadable store: %s" m ]
      | set -> Model_lint.check_store ~file set
    else
      let options = { Netlist_lint.fanout_limit } in
      Netlist_lint.check_text ~options ~file Tech.generic_5v text

(* case-insensitive shell-style glob: [*] any run, [?] one character *)
let glob_match pat name =
  let np = String.length pat and nn = String.length name in
  let eq a b = Char.uppercase_ascii a = Char.uppercase_ascii b in
  let rec go i j =
    if i = np then j = nn
    else
      match pat.[i] with
      | '*' -> go (i + 1) j || (j < nn && go i (j + 1))
      | '?' -> j < nn && go (i + 1) (j + 1)
      | c -> j < nn && eq c name.[j] && go (i + 1) (j + 1)
  in
  go 0 0

let parse_code_filter s =
  let names =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun n -> n <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | n :: tl ->
      if String.contains n '*' || String.contains n '?' then (
        match
          List.filter
            (fun c -> glob_match n (Diagnostic.code_name c))
            Diagnostic.all_codes
        with
        | [] ->
          Error
            (`Msg (Printf.sprintf "code pattern %s matches no diagnostic" n))
        | cs -> go (List.rev_append cs acc) tl)
      else (
        match Diagnostic.code_of_name n with
        | Some c -> go (c :: acc) tl
        | None -> Error (`Msg (Printf.sprintf "unknown diagnostic code %s" n)))
  in
  go [] names

(* the --codes option of every report-emitting subcommand: absent = keep
   all, bare = print the code table, a value = keep only those codes.
   The filter applies BEFORE --fail-on computes the exit status, so
   filtered-out findings can neither fail a run nor appear in it. *)
let resolve_code_filter = function
  | None -> Ok `All
  | Some "" -> Ok `Table
  | Some s -> Result.map (fun cs -> `Keep cs) (parse_code_filter s)

let apply_code_filter filter diags =
  match filter with
  | `All | `Table -> diags
  | `Keep cs -> Diagnostic.filter_codes cs diags

(* print the findings in [format] — the text form after the command's
   own [header] — and return the --fail-on exit status *)
let emit_report ?(header = ignore) format fail_on diags =
  (match format with
   | `Text ->
     header ();
     print_string (Diagnostic.report_text diags)
   | `Json -> print_endline (Diagnostic.report_json_string diags)
   | `Sarif -> print_endline (Diagnostic.report_sarif_string diags));
  Diagnostic.exit_code ~fail_on diags

let run_lint files format fail_on fanout_limit codes =
  match resolve_code_filter codes with
  | Error (`Msg m) -> usage_error m
  | Ok `Table -> print_code_table ()
  | Ok (`All | `Keep _) when files = [] ->
    usage_error "proxim lint: need at least one FILE (or --codes)"
  | Ok filter ->
    let lint_one f =
      Obs_trace.with_span ~cat:"lint" ~args:[ ("file", f) ] "lint.file"
        (fun () -> lint_file ~fanout_limit f)
    in
    emit_report format fail_on
      (apply_code_filter filter
         (Diagnostic.sort (List.concat_map lint_one files)))

(* ------------------------------------------------------------------ *)
(* sta                                                                 *)

module Sta = Proxim_sta.Sta
module Design = Proxim_sta.Design
module Netlist_text = Proxim_sta.Netlist_text
module Netlist_bin = Proxim_sta.Netlist_bin
module Netlist_file = Proxim_sta.Netlist_file
module Synthgen = Proxim_sta.Synthgen
module Timing = Proxim_timing.Timing
module Graph = Proxim_timing.Graph
module Memo_cache = Proxim_util.Memo_cache

let edge_name = function Measure.Rise -> "rise" | Measure.Fall -> "fall"

let parse_pi_spec s =
  match String.split_on_char ':' s with
  | [ net; edge_s; tau_s; t_s ] ->
    Result.map
      (fun (edge, slew, time) -> (net, { Sta.time; slew; edge }))
      (parse_edge_tau_t ~spec:s edge_s tau_s t_s)
  | _ ->
    Error
      (`Msg
        (Printf.sprintf
           "bad pi event %s (expected net:edge:tau_ps:cross_ps, e.g. \
            a:fall:500:0)"
           s))

let parse_eco_spec s =
  match String.split_on_char ':' s with
  | [ "cell"; name ] -> Ok (Sta.Touch_cell name)
  | [ "pi"; net; "quiet" ] | [ "pi"; net; "-" ] -> Ok (Sta.Set_pi (net, None))
  | "pi" :: net :: ([ _; _; _ ] as rest) ->
    Result.map
      (fun (_, a) -> Sta.Set_pi (net, Some a))
      (parse_pi_spec (String.concat ":" (net :: rest)))
  | _ ->
    Error
      (`Msg
        (Printf.sprintf
           "bad eco %s (expected pi:NET:EDGE:TAU_PS:CROSS_PS, pi:NET:quiet \
            or cell:NAME)"
           s))

(* --pi-all: one event applied to every primary input not already named
   by a --pi option — the only sane way to drive a generated
   million-input-free design where PIs are pi0..piN *)
let parse_pi_all_spec s =
  match String.split_on_char ':' s with
  | [ edge_s; tau_s; t_s ] ->
    Result.map
      (fun (edge, slew, time) -> { Sta.time; slew; edge })
      (parse_edge_tau_t ~spec:s edge_s tau_s t_s)
  | _ ->
    Error
      (`Msg
        (Printf.sprintf
           "bad pi-all event %s (expected edge:tau_ps:cross_ps, e.g. \
            fall:500:0)"
           s))

let rec parse_all parse acc = function
  | [] -> Ok (List.rev acc)
  | s :: tl -> (
    match parse s with
    | Ok v -> parse_all parse (v :: acc) tl
    | Error e -> Error e)

(* the --pi/--pi-all/--eco stimulus of sta and the serve smoke client *)
let with_stimulus ~cmd pi_specs pi_all_spec eco_specs k =
  match
    ( parse_all parse_pi_spec [] pi_specs,
      parse_all parse_eco_spec [] eco_specs,
      Option.fold ~none:(Ok None)
        ~some:(fun s -> Result.map Option.some (parse_pi_all_spec s))
        pi_all_spec )
  with
  | Error (`Msg m), _, _ | _, Error (`Msg m), _ | _, _, Error (`Msg m) ->
    usage_error m
  | Ok [], _, Ok None ->
    usage_error
      (Printf.sprintf "proxim %s: need at least one --pi event (or --pi-all)"
         cmd)
  | Ok named_pi, Ok ecos, Ok pi_all -> k named_pi pi_all ecos

(* One phase taxonomy for `proxim sta` and `proxim profile`: parse ->
   thresholds -> (characterize, profile only) -> build_ir -> analyze ->
   report, each a span of category "phase" so a trace attributes the
   wall time of either command to the same named stages. *)
let phase name f = Obs_trace.with_span ~cat:"phase" name f

(* the netlist argument of every analysis subcommand, in either encoding;
   an unreadable or malformed file is exit 1 *)
let with_design file k =
  match phase "parse" (fun () -> Netlist_file.load Tech.generic_5v file) with
  | Error m ->
    prerr_endline m;
    1
  | Ok (name, design, file_th) -> k name design file_th

let factory_of models_kind design th =
  match models_kind with
  | `Oracle -> Sta.oracle_factory design th
  | `Synthetic -> Sta.synthetic_factory ()

let apply_eco_to_pi pi = function
  | Sta.Touch_cell _ -> pi
  | Sta.Set_pi (net, a) -> (
    let rest = List.remove_assoc net pi in
    match a with None -> rest | Some a -> rest @ [ (net, a) ])

(* The arrivals / critical output / K-worst paths block.  `proxim sta`
   and `proxim serve --smoke` both print it, and CI diffs one against the
   other.  [paths po] gives the paths to the critical output [po]. *)
let print_timing ~summary (report : Sta.report) ~paths =
  if summary then
    Printf.printf "arrivals: %d switching nets\n"
      (List.length report.Sta.arrivals)
  else begin
    Printf.printf "arrivals:\n";
    List.iter
      (fun (net, (a : Sta.arrival)) ->
        Printf.printf "  %-14s %8.1f ps  slew %7.1f ps  %s\n" net
          (ps a.Sta.time) (ps a.Sta.slew) (edge_name a.Sta.edge))
      report.Sta.arrivals
  end;
  match report.Sta.critical_po with
  | None -> Printf.printf "no primary output switches\n"
  | Some (po, a) ->
    Printf.printf "critical output: %s at %.1f ps\n" po (ps a.Sta.time);
    List.iteri
      (fun i (p : Sta.path) ->
        Printf.printf "path #%d (%8.1f ps): %s\n" (i + 1)
          (ps p.Sta.path_arrival)
          (String.concat " <- " p.Sta.path_nets))
      (paths po)

let run_sta file pi_specs pi_all_spec mode models_kind paths_k required_ps
    eco_specs verify_eco summary =
  with_design file @@ fun name design file_th ->
  with_stimulus ~cmd:"sta" pi_specs pi_all_spec eco_specs
  @@ fun named_pi pi_all ecos ->
  if paths_k < 1 then usage_error "proxim sta: --paths must be >= 1"
  else
    (* CLI boundary: an unknown net or cell in --eco is a user typo, not an
       internal failure — report it like a lint error (exit 2) instead of
       escaping as a raw exception with a backtrace. *)
    try
      let pi = Sta.with_pi_all design named_pi pi_all in
      let th =
        phase "thresholds" (fun () ->
            Netlist_file.thresholds Tech.generic_5v design file_th)
      in
      let factory = factory_of models_kind design th in
      let g = Design.graph design in
      Printf.printf "design %s: %d cells, %d nets, %d levels\n" name
        (Graph.cell_count g) (Graph.net_count g) (Graph.level_count g);
      let analyze pi =
        let ir =
          phase "build_ir" (fun () ->
              Sta.build_ir ~mode ~models:factory.Sta.models ~thresholds:th
                design ~pi)
        in
        ignore (phase "analyze" (fun () -> Sta.reanalyze ir) : Timing.stats);
        ir
      in
      let ir = analyze pi in
      let show_results () =
        phase "report" @@ fun () ->
        let report = Sta.report ir in
        print_timing ~summary report ~paths:(fun po ->
            Sta.worst_paths ir ~po ~k:paths_k);
        Option.iter
          (fun req ->
            Printf.printf "slacks (required %.1f ps):\n" req;
            List.iter
              (fun (net, slack) ->
                Printf.printf "  %-14s %+8.1f ps\n" net (ps slack))
              (Sta.po_slacks design report ~required:(req *. 1e-12)))
          required_ps
      in
      show_results ();
      let eco_ok =
        if ecos = [] then true
        else begin
          let stats = Sta.update ir ecos in
          Printf.printf "\nECO: re-evaluated %d of %d cells (%d changed)\n"
            stats.Timing.evaluated stats.Timing.total_cells
            stats.Timing.changed;
          show_results ();
          if not verify_eco then true
          else begin
            let fresh = analyze (List.fold_left apply_eco_to_pi pi ecos) in
            let same = Sta.report_equal (Sta.report ir) (Sta.report fresh) in
            Printf.printf "incremental vs full re-analysis: %s\n"
              (if same then "bit-identical" else "MISMATCH");
            same
          end
        end
      in
      let cs = factory.Sta.factory_stats () in
      Printf.printf "model cache: %d hits, %d misses, %d waits, %d entries\n"
        cs.Memo_cache.hits cs.Memo_cache.misses cs.Memo_cache.waits
        cs.Memo_cache.entries;
      if eco_ok then 0 else 1
    with Sta.Unknown_eco_target { kind; name } ->
      Printf.eprintf "proxim sta: error: --eco refers to unknown %s %s\n" kind
        name;
      2

(* ------------------------------------------------------------------ *)
(* gen / convert                                                       *)

let format_for ~explicit ~path =
  match explicit with
  | Some f -> f
  | None -> if Filename.check_suffix path ".pxb" then `Binary else `Text

let write_netlist ?thresholds ~name design path = function
  | `Binary -> Netlist_bin.write_file ?thresholds ~name design path
  | `Text ->
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc
          (Netlist_text.to_string ?thresholds ~name design))

let run_gen cells seed depth window reach out fmt =
  match
    Synthgen.generate ~seed ~depth ~window ~reach ~tech:Tech.generic_5v
      ~cells ()
  with
  | exception Invalid_argument m -> usage_error ("proxim gen: " ^ m)
  | name, design ->
    let g = Design.graph design in
    (match out with
     | None -> print_string (Netlist_text.to_string ~name design)
     | Some path ->
       write_netlist ~name design path (format_for ~explicit:fmt ~path);
       Printf.printf "%s: %d cells, %d nets, %d levels -> %s\n" name
         (Graph.cell_count g) (Graph.net_count g) (Graph.level_count g) path);
    0

let run_convert input output fmt =
  with_design input (fun name design thresholds ->
      let target = format_for ~explicit:fmt ~path:output in
      write_netlist ?thresholds ~name design output target;
      Printf.printf "%s: %d cells -> %s (%s)\n" name
        (List.length (Design.cells design))
        output
        (match target with `Binary -> "binary" | `Text -> "text");
      0)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)

(* One STA run with every pipeline stage wrapped in a "phase" span:
   parse -> thresholds -> characterize (the paper's section-3 macromodel
   build, forced up front so its cost lands in one bucket) -> build_ir ->
   analyze (the section-4 fold) -> report.  Prints the per-phase
   time/alloc breakdown from the trace aggregation. *)
let run_profile file pi_specs pi_all_spec mode models_kind =
  Obs_metrics.install_util_sources ();
  Obs_trace.clear ();
  Obs_trace.enable ();
  let wall0 = Unix.gettimeofday () in
  with_design file @@ fun name design file_th ->
    with_stimulus ~cmd:"profile" pi_specs pi_all_spec []
    @@ fun named_pi pi_all _ecos ->
      let pi = Sta.with_pi_all design named_pi pi_all in
      let th =
        phase "thresholds" (fun () ->
            Netlist_file.thresholds Tech.generic_5v design file_th)
      in
      let factory = factory_of models_kind design th in
      phase "characterize" (fun () ->
          List.iter
            (fun c -> ignore (factory.Sta.models c : Models.t))
            (Design.cells design));
      let ir =
        phase "build_ir" (fun () ->
            Sta.build_ir ~mode ~models:factory.Sta.models ~thresholds:th
              design ~pi)
      in
      ignore (phase "analyze" (fun () -> Sta.reanalyze ir) : Timing.stats);
      let report = phase "report" (fun () -> Sta.report ir) in
      let wall_us = (Unix.gettimeofday () -. wall0) *. 1e6 in
      let g = Design.graph design in
      Printf.printf "design %s: %d cells, %d nets, %d levels\n" name
        (Graph.cell_count g) (Graph.net_count g) (Graph.level_count g);
      (match report.Sta.critical_po with
       | None -> Printf.printf "no primary output switches\n"
       | Some (po, a) ->
         Printf.printf "critical output: %s at %.1f ps\n" po (ps a.Sta.time));
      let aggs = Obs_trace.aggregate ~cat:"phase" () in
      (* pipeline order reads better than duration order for six rows *)
      let phases =
        List.filter_map
          (fun n ->
            List.find_opt (fun a -> a.Obs_trace.agg_name = n) aggs)
          [ "parse"; "thresholds"; "characterize"; "build_ir"; "analyze";
            "report" ]
      in
      let mb bytes = bytes /. 1048576. in
      Printf.printf "\n%-14s %12s  %6s %12s\n" "phase" "time" "% wall"
        "alloc";
      List.iter
        (fun (a : Obs_trace.agg) ->
          Printf.printf "%-14s %9.3f ms  %5.1f%% %9.2f MB\n" a.Obs_trace.agg_name
            (a.Obs_trace.total_us /. 1e3)
            (100. *. a.Obs_trace.total_us /. wall_us)
            (mb a.Obs_trace.alloc_bytes))
        phases;
      let covered =
        List.fold_left (fun s a -> s +. a.Obs_trace.total_us) 0. phases
      in
      Printf.printf "phase coverage: %.1f%% of %.3f ms wall\n"
        (100. *. covered /. wall_us)
        (wall_us /. 1e3);
      let hot =
        List.concat_map
          (fun c -> Obs_trace.aggregate ~cat:c ())
          [ "characterize"; "sta"; "verify"; "pool" ]
        |> List.sort (fun a b ->
               Float.compare b.Obs_trace.total_us a.Obs_trace.total_us)
      in
      if hot <> [] then begin
        Printf.printf "\nhot spans:\n";
        List.iteri
          (fun i (a : Obs_trace.agg) ->
            if i < 8 then
              Printf.printf "  %-22s %5dx %9.3f ms %9.2f MB\n"
                a.Obs_trace.agg_name a.Obs_trace.count
                (a.Obs_trace.total_us /. 1e3)
                (mb a.Obs_trace.alloc_bytes))
          hot
      end;
      0

(* ------------------------------------------------------------------ *)
(* verify / hazards                                                    *)

module Verify = Proxim_verify.Verify
module Sense = Proxim_sense.Sense

(* --pi-window: a bare PS value sets the global arrival-time window,
   NET=PS overrides it for one net *)
let parse_window_spec s =
  let bad () =
    Error
      (`Msg
        (Printf.sprintf "bad window %s (expected PS or NET=PS, e.g. 25 or a=25)"
           s))
  in
  match String.index_opt s '=' with
  | None -> (
    match float_of_string_opt s with
    | Some ps when ps >= 0. -> Ok (`Global (ps *. 1e-12))
    | Some _ | None -> bad ())
  | Some i -> (
    let net = String.sub s 0 i in
    let v = String.sub s (i + 1) (String.length s - i - 1) in
    match float_of_string_opt v with
    | Some ps when ps >= 0. && net <> "" -> Ok (`Net (net, ps *. 1e-12))
    | Some _ | None -> bad ())

(* what an interval analysis (verify, hazards) starts from *)
type interval_run = {
  name : string;
  design : Design.t;
  th : Vtc.thresholds;
  factory : Sta.factory;
  events : Verify.pi_event list;  (** the --pi events widened by the windows *)
  codes : [ `All | `Keep of Diagnostic.code list ];
}

let with_interval_run ~cmd file pi_specs window_specs tau_window_ps
    models_kind codes_filter k =
  (* CLI boundary: a typo'd --pi-window net name is a usage error (exit 2),
     not a crash *)
  try
    with_design file @@ fun name design file_th ->
    match
      ( parse_all parse_pi_spec [] pi_specs,
        parse_all parse_window_spec [] window_specs,
        resolve_code_filter codes_filter )
    with
    | Error (`Msg m), _, _ | _, Error (`Msg m), _ | _, _, Error (`Msg m) ->
      usage_error m
    | _, _, Ok `Table -> print_code_table ()
    | Ok [], _, _ ->
      usage_error (Printf.sprintf "proxim %s: need at least one --pi event" cmd)
    | Ok pi, Ok windows, Ok ((`All | `Keep _) as codes) ->
      Verify.validate_window_nets design
        (List.filter_map
           (function `Net (n, _) -> Some n | `Global _ -> None)
           windows);
      let th = Netlist_file.thresholds Tech.generic_5v design file_th in
      let global =
        List.fold_left
          (fun acc -> function `Global w -> w | `Net _ -> acc)
          0. windows
      in
      let window_for net =
        List.fold_left
          (fun acc -> function
            | `Net (n, w) when n = net -> w
            | `Net _ | `Global _ -> acc)
          global windows
      in
      let tau_window = tau_window_ps *. 1e-12 in
      let events =
        List.map
          (fun (net, a) ->
            Verify.of_sta_event ~time_window:(window_for net) ~tau_window
              (net, a))
          pi
      in
      k
        {
          name;
          design;
          th;
          factory = factory_of models_kind design th;
          events;
          codes;
        }
  with Verify.Unknown_window_net { net } ->
    Printf.eprintf
      "proxim %s: error: --pi-window names %s, which is not a primary input \
       of the design\n"
      cmd net;
    2

let run_verify file pi_specs window_specs tau_window_ps mode models_kind
    format fail_on codes_filter sense =
  with_interval_run ~cmd:"verify" file pi_specs window_specs tau_window_ps
    models_kind codes_filter
  @@ fun r ->
  let v =
    Verify.analyze ~mode ~models:r.factory.Sta.models ~thresholds:r.th
      r.design ~pi:r.events
  in
  let v, refinement =
    if not sense then (v, None)
    else
      let s = Sense.analyze r.design ~pi:(Sense.stimuli_of_events r.events) in
      let v, refined =
        Verify.refine v ~unsensitizable:(Sense.pair_unsensitizable s)
      in
      (v, Some refined)
  in
  emit_report format fail_on
    (apply_code_filter r.codes (Verify.check ~file v))
    ~header:(fun () ->
      let s = Verify.summary v in
      Printf.printf
        "design %s: %d cells, %d switching; never-proximate %d, \
         always-proximate %d, may-be-proximate %d\n"
        r.name s.Verify.total_cells s.Verify.switching_cells s.Verify.never
        s.Verify.always s.Verify.may;
      Option.iter
        (fun (refined : Verify.refinement) ->
          Printf.printf
            "sensitization refinement: %d pairs and %d cells converted to \
             never-proximate\n"
            refined.Verify.refined_pairs refined.Verify.refined_cells)
        refinement)

module Hazard = Proxim_hazard.Hazard

let run_hazards file pi_specs window_specs tau_window_ps mode models_kind
    filter_margin_ps required_ps format fail_on codes_filter sense =
  with_interval_run ~cmd:"hazards" file pi_specs window_specs tau_window_ps
    models_kind codes_filter
  @@ fun r ->
  let rule =
    match models_kind with
    | `Synthetic -> Hazard.model_rule
    | `Oracle -> Hazard.inertial_rule ~thresholds:r.th ()
  in
  let h =
    Hazard.analyze ~mode
      ~filter_margin:(filter_margin_ps *. 1e-12)
      ?required:(Option.map (fun req -> req *. 1e-12) required_ps)
      ~rule ~models:r.factory.Sta.models ~thresholds:r.th r.design ~pi:r.events
  in
  let h, refinement =
    if not sense then (h, None)
    else
      let s = Sense.analyze r.design ~pi:(Sense.stimuli_of_events r.events) in
      let h, refined =
        Hazard.refine h ~impossible:(Sense.pair_unsensitizable s)
      in
      (h, Some refined)
  in
  emit_report format fail_on
    (apply_code_filter r.codes (Hazard.check ~file h))
    ~header:(fun () ->
      Printf.printf "design %s: %s" r.name (Hazard.report_text h);
      Option.iter
        (fun (refined : Hazard.refinement) ->
          Printf.printf
            "sensitization refinement: %d impossible pairs dropped, %d cells \
             demoted\n"
            refined.Hazard.refined_pairs refined.Hazard.refined_cells)
        refinement)

(* ------------------------------------------------------------------ *)
(* sense                                                               *)

let parse_const_spec s =
  match String.index_opt s '=' with
  | Some i when i > 0 && i = String.length s - 2 -> (
    let net = String.sub s 0 i in
    match s.[i + 1] with
    | '0' -> Ok (net, false)
    | '1' -> Ok (net, true)
    | _ -> Error (`Msg (Printf.sprintf "bad --const %s (expected NET=0|1)" s)))
  | _ -> Error (`Msg (Printf.sprintf "bad --const %s (expected NET=0|1)" s))

let run_sense file pi_specs const_specs budget max_support format fail_on
    codes_filter =
  with_design file @@ fun name design _file_th ->
  match
    ( parse_all parse_pi_spec [] pi_specs,
      parse_all parse_const_spec [] const_specs,
      resolve_code_filter codes_filter )
  with
  | Error (`Msg m), _, _ | _, Error (`Msg m), _ | _, _, Error (`Msg m) ->
    usage_error m
  | _, _, Ok `Table -> print_code_table ()
  | Ok pi, Ok consts, Ok codes -> (
    if budget < 1 then usage_error "proxim sense: --budget must be >= 1"
    else if max_support < 0 then
      usage_error "proxim sense: --support must be >= 0"
    else
      let events = List.map (Verify.of_sta_event ?time_window:None) pi in
      match
        Sense.analyze ~budget ~max_support design
          ~pi:(Sense.stimuli_of_events ~consts events)
      with
      | exception Invalid_argument m -> usage_error ("proxim sense: " ^ m)
      | s ->
        emit_report format fail_on
          (apply_code_filter codes (Sense.check ~file s))
          ~header:(fun () ->
            Printf.printf "design %s: %s" name (Sense.report_text s)))

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

module Serve = Proxim_serve.Serve
module Sjson = Proxim_util.Json

(* unix:PATH | tcp:HOST:PORT | bare PATH (a unix socket) *)
let parse_addr s =
  let prefixed p =
    String.length s > String.length p
    && String.sub s 0 (String.length p) = p
  in
  if prefixed "unix:" then
    Ok (`Unix (String.sub s 5 (String.length s - 5)))
  else if prefixed "tcp:" then begin
    let rest = String.sub s 4 (String.length s - 4) in
    match String.rindex_opt rest ':' with
    | Some i -> (
      let host = String.sub rest 0 i in
      let port_s = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port_s with
      | Some port when port >= 0 -> Ok (`Tcp (host, port))
      | _ -> Error (Printf.sprintf "bad port in address %s" s))
    | None -> Error (Printf.sprintf "bad address %s (tcp:HOST:PORT)" s)
  end
  else Ok (`Unix s)

let addr_to_string = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* the daemon: bind, announce, serve until a protocol shutdown (or a
   signal) stops it — a clean stop is exit 0 *)
let run_serve_daemon addr =
  match Serve.start addr with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "proxim serve: cannot listen on %s: %s\n"
      (addr_to_string addr) (Unix.error_message e);
    1
  | srv ->
    let announced =
      match (addr, Serve.port srv) with
      | `Tcp (host, _), Some p -> `Tcp (host, p)
      | a, _ -> a
    in
    Printf.printf "proxim serve: listening on %s\n%!"
      (addr_to_string announced);
    List.iter
      (fun s ->
        try Sys.set_signal s (Sys.Signal_handle (fun _ -> Serve.stop srv))
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigint; Sys.sigterm ];
    Serve.wait srv;
    Printf.printf "proxim serve: shut down cleanly\n%!";
    0

let serve_fail m =
  prerr_endline ("proxim serve: " ^ m);
  1

let with_connection addr k =
  match Serve.connect addr with
  | exception Unix.Unix_error (e, _, _) ->
    serve_fail
      (Printf.sprintf "cannot connect to %s: %s" (addr_to_string addr)
         (Unix.error_message e))
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> k fd)

(* raw client: each --send payload goes out as one frame verbatim (so a
   test can push deliberately broken JSON through the framing), and
   each response prints as one line of JSON *)
let run_serve_send addr payloads =
  with_connection addr (fun fd ->
      let rec go = function
        | [] -> 0
        | payload :: tl -> (
          Proxim_serve.Frame.write fd payload;
          match Proxim_serve.Frame.read fd with
          | Ok response ->
            print_endline response;
            go tl
          | Error e ->
            serve_fail (Proxim_serve.Frame.read_error_to_string e))
      in
      go payloads)

exception Smoke_failed of string

(* one smoke request: a transport error or an ok:false answer ends the run *)
let smoke_call fd op fields =
  match Serve.request fd (Sjson.Obj (("op", Sjson.String op) :: fields)) with
  | Error m -> raise (Smoke_failed m)
  | Ok resp when Serve.ok resp -> resp
  | Ok resp ->
    raise
      (Smoke_failed
         (match Sjson.member "error" resp with
          | Some e ->
            Printf.sprintf "%s: %s"
              (Option.value (Serve.error_code resp) ~default:"error")
              (Option.value
                 (Option.bind (Sjson.member "message" e)
                    Sjson.to_string_value)
                 ~default:"")
          | None -> "request failed"))

let list_member name j =
  Option.value (Option.bind (Sjson.member name j) Sjson.to_list) ~default:[]

(* smoke client for CI: drive load -> attach -> eco -> report through a
   live daemon and print the result with `proxim sta`'s printer, so the
   bytes can be diffed against offline analysis *)
let run_serve_smoke addr file pi_specs pi_all_spec eco_specs mode paths_k =
  with_stimulus ~cmd:"serve" pi_specs pi_all_spec eco_specs
  @@ fun named_pi pi_all ecos ->
  with_connection addr @@ fun fd ->
  try
    let abs =
      if Filename.is_relative file then Filename.concat (Sys.getcwd ()) file
      else file
    in
    let loaded = smoke_call fd "load" [ ("path", Sjson.String abs) ] in
    let dname =
      Option.value
        (Option.bind (Sjson.member "design" loaded) Sjson.to_string_value)
        ~default:""
    in
    ignore
      (smoke_call fd "attach"
         ([
            ("design", Sjson.String dname);
            ( "mode",
              Sjson.String
                (match mode with Sta.Classic -> "classic" | _ -> "proximity")
            );
            ("models", Sjson.String "synthetic");
            ( "pi",
              Sjson.List
                (List.map
                   (fun (net, a) ->
                     Sjson.List [ Sjson.String net; Serve.arrival_to_json a ])
                   named_pi) );
          ]
         @ Option.fold ~none:[]
             ~some:(fun a -> [ ("pi_all", Serve.arrival_to_json a) ])
             pi_all)
        : Sjson.t);
    if ecos <> [] then
      ignore
        (smoke_call fd "eco"
           [ ("ecos", Sjson.List (List.map Serve.eco_to_json ecos)) ]
          : Sjson.t);
    let report =
      match Sjson.member "report" (smoke_call fd "report" []) with
      | None -> raise (Smoke_failed "response carries no report")
      | Some rj -> (
        match Serve.report_of_json rj with
        | Ok report -> report
        | Error m -> raise (Smoke_failed m))
    in
    print_timing ~summary:false report ~paths:(fun po ->
        smoke_call fd "paths"
          [
            ("po", Sjson.String po);
            ("k", Sjson.Number (float_of_int paths_k));
          ]
        |> list_member "paths"
        |> List.map (fun p ->
               {
                 Sta.path_arrival =
                   Option.value
                     (Option.bind (Sjson.member "arrival" p) Sjson.to_number)
                     ~default:Float.nan;
                 path_nets =
                   List.filter_map Sjson.to_string_value (list_member "nets" p);
               }));
    ignore (smoke_call fd "bye" [] : Sjson.t);
    0
  with Smoke_failed m -> serve_fail m

let run_serve listen_s connect_s payloads smoke_file pi_specs pi_all_spec
    eco_specs mode paths_k =
  let with_addr s k =
    match parse_addr s with Error m -> usage_error m | Ok a -> k a
  in
  match (connect_s, smoke_file, payloads) with
  | None, None, [] -> (
    match listen_s with
    | Some s -> with_addr s run_serve_daemon
    | None ->
      usage_error
        "proxim serve: pass --listen ADDR to serve, or --connect ADDR with \
         --send/--smoke to talk to a daemon")
  | None, _, _ ->
    usage_error "proxim serve: --send/--smoke need --connect ADDR"
  | Some _, Some _, _ :: _ ->
    usage_error "proxim serve: --send and --smoke are mutually exclusive"
  | Some c, None, (_ :: _ as payloads) ->
    with_addr c (fun a -> run_serve_send a payloads)
  | Some c, Some file, [] ->
    with_addr c (fun a ->
        run_serve_smoke a file pi_specs pi_all_spec eco_specs mode paths_k)
  | Some _, None, [] ->
    usage_error "proxim serve: --connect needs --send or --smoke"

(* ------------------------------------------------------------------ *)
(* cmdliner wiring                                                     *)

open Cmdliner

let gate_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"GATE" ~doc:"Gate type: inv, nandN, norN, aoi21, oai21.")

(* Shared --domains flag: configures the process-wide pool every
   characterization path defaults to.  1 = serial (bit-identical). *)
let domains_setup =
  let doc =
    "Number of domains (cores) used for parallel characterization sweeps; 1 \
     runs everything serially with bit-identical results."
  in
  let arg =
    Arg.(
      value
      & opt int (Proxim_util.Pool.recommended_domains ())
      & info [ "domains" ] ~docv:"N" ~doc)
  in
  let setup n =
    if n < 1 then begin
      prerr_endline "proxim: --domains must be >= 1";
      exit 2
    end;
    Proxim_util.Pool.set_default_domains n
  in
  Term.(const setup $ arg)

(* Shared observability flags: --trace FILE records every instrumented
   span to a Chrome trace-event JSON file (load it in ui.perfetto.dev);
   --metrics text|json prints the metrics-registry snapshot after the
   command body runs. *)
type obs_opts = {
  trace_file : string option;
  metrics_fmt : [ `Text | `Json ] option;
}

let obs_setup =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record instrumented spans and write them as Chrome \
             trace-event JSON to $(docv) (loadable in Perfetto, \
             ui.perfetto.dev, or chrome://tracing).")
  in
  let metrics =
    Arg.(
      value
      & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
      & info [ "metrics" ] ~docv:"FMT"
          ~doc:
            "Print a metrics-registry snapshot (counters, gauges, latency \
             histograms) after the run: text or json.")
  in
  let setup trace_file metrics_fmt =
    Obs_metrics.install_util_sources ();
    if trace_file <> None then Obs_trace.enable ();
    { trace_file; metrics_fmt }
  in
  Term.(const setup $ trace $ metrics)

let finish_obs obs code =
  (match obs.trace_file with
   | None -> ()
   | Some f ->
     Obs_trace.write_file f;
     Printf.eprintf "trace written to %s (load in ui.perfetto.dev)\n" f);
  (match obs.metrics_fmt with
   | None -> ()
   | Some `Text -> print_string (Obs_metrics.to_text (Obs_metrics.snapshot ()))
   | Some `Json ->
     print_endline (Obs_metrics.to_json (Obs_metrics.snapshot ())));
  code

(* Flags shared by several subcommands, each defined once.  Only the
   --models default and the --mode choices differ between commands. *)

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:
          "Netlist to read: text (.ntl) or binary (.pxb), detected by \
           content.")

let pi_arg =
  Arg.(
    value & opt_all string []
    & info [ "pi" ] ~docv:"EVENT"
        ~doc:
          "Primary-input event as net:edge:tau_ps:cross_ps (repeatable), \
           e.g. --pi a:fall:500:0.  Under hazards and sense, edges may mix \
           freely and two events on one net describe a pulse.")

let pi_all_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pi-all" ] ~docv:"EVENT"
        ~doc:
          "Apply one event as edge:tau_ps:cross_ps to every primary input \
           not already named by a --pi option — the practical way to drive \
           generated designs with thousands of inputs.")

let eco_arg =
  Arg.(
    value & opt_all string []
    & info [ "eco" ] ~docv:"EDIT"
        ~doc:
          "Apply an engineering change order after the initial analysis and \
           re-analyze incrementally (repeatable): \
           pi:NET:EDGE:TAU_PS:CROSS_PS re-times a primary input, \
           pi:NET:quiet silences one, cell:NAME marks a cell \
           re-characterized.")

let paths_arg =
  Arg.(
    value & opt int 1
    & info [ "paths" ] ~docv:"K"
        ~doc:"Enumerate the K worst paths to the critical output.")

(* [~baselines] adds the collapse-to-inverter modes, which only sta runs *)
let mode_arg ~baselines =
  let baseline_modes =
    [ ("jun", Sta.Collapsed Collapse.Jun);
      ("nabavi-lishi", Sta.Collapsed Collapse.Nabavi_lishi) ]
  in
  Arg.(
    value
    & opt
        (enum
           ([ ("classic", Sta.Classic); ("proximity", Sta.Proximity) ]
           @ if baselines then baseline_modes else []))
        Sta.Proximity
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          ("Propagation mode: classic (latest single-input response) or \
            proximity (the paper's algorithm, default)"
          ^
          if baselines then
            "; jun or nabavi-lishi run the collapse-to-inverter baselines on \
             the golden simulator."
          else "."))

let models_arg default =
  Arg.(
    value
    & opt (enum [ ("oracle", `Oracle); ("synthetic", `Synthetic) ]) default
    & info [ "models" ] ~docv:"KIND"
        ~doc:
          "Cell models: oracle (golden-simulator backed) or synthetic (fast \
           analytic stand-ins).  hazards also takes its section-6 rule from \
           this choice: bisected inertial minimum separations with oracle, \
           the macromodel surrogate rule with synthetic.")

let pi_window_arg =
  Arg.(
    value & opt_all string []
    & info [ "pi-window" ] ~docv:"PS|NET=PS"
        ~doc:
          "Arrival-time uncertainty window, ±PS picoseconds (repeatable): a \
           bare value applies to every event, NET=PS overrides one net. \
           Default ±0 (the concrete events).")

let tau_window_arg =
  Arg.(
    value & opt float 0.
    & info [ "tau-window" ] ~docv:"PS"
        ~doc:"Transition-time uncertainty window, ±PS, for every event.")

let report_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Report format: text, json or sarif (SARIF 2.1.0).")

let fail_on_arg =
  Arg.(
    value
    & opt
        (enum [ ("warning", Diagnostic.Warning); ("error", Diagnostic.Error) ])
        Diagnostic.Warning
    & info [ "fail-on" ] ~docv:"SEV"
        ~doc:
          "Lowest severity that makes the exit status nonzero: warning \
           (default) or error.")

let codes_arg =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "codes" ] ~docv:"CODES"
        ~doc:
          "Without a value, print the diagnostic-code table and exit.  With \
           a comma-separated list of codes or glob patterns (e.g. \
           PX101,PX112 or PX3*,PX40?), keep only those codes — the filter \
           applies before --fail-on computes the exit status.")

let vtc_cmd =
  Cmd.v (Cmd.info "vtc" ~doc:"Print the VTC family and chosen thresholds")
    Term.(const (fun () g -> run_vtc g) $ domains_setup $ gate_arg)

let delay_cmd =
  let pin = Arg.(value & opt string "a" & info [ "pin" ] ~docv:"PIN") in
  let edge = Arg.(value & opt string "fall" & info [ "edge" ] ~docv:"EDGE") in
  let tau =
    Arg.(value & opt float 500. & info [ "tau" ] ~docv:"PS" ~doc:"transition time, ps")
  in
  let load =
    Arg.(value & opt (some float) None & info [ "load" ] ~docv:"FF" ~doc:"output load, fF")
  in
  Cmd.v (Cmd.info "delay" ~doc:"Single-input delay on the golden simulator")
    Term.(
      const (fun () g p e t l -> run_delay g p e t l)
      $ domains_setup $ gate_arg $ pin $ edge $ tau $ load)

let proximity_cmd =
  let events =
    Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"EVENT"
          ~doc:"Input events as pin:edge:tau_ps:cross_ps, e.g. a:fall:500:0.")
  in
  let baselines =
    Arg.(value & flag & info [ "baselines" ] ~doc:"Also run the collapse-to-inverter baselines.")
  in
  Cmd.v
    (Cmd.info "proximity"
       ~doc:"Run ProximityDelay on a set of input events and compare with the golden simulator")
    Term.(
      const (fun () g ev b -> run_proximity g ev b)
      $ domains_setup $ gate_arg $ events $ baselines)

let glitch_cmd =
  let fall_pin = Arg.(value & opt string "a" & info [ "fall-pin" ]) in
  let rise_pin = Arg.(value & opt string "b" & info [ "rise-pin" ]) in
  let tau_fall = Arg.(value & opt float 500. & info [ "tau-fall" ] ~docv:"PS") in
  let tau_rise = Arg.(value & opt float 100. & info [ "tau-rise" ] ~docv:"PS") in
  let sep = Arg.(value & opt float 0. & info [ "sep" ] ~docv:"PS") in
  let find_min =
    Arg.(value & flag & info [ "find-min" ] ~doc:"Bisect for the inertial delay.")
  in
  Cmd.v (Cmd.info "glitch" ~doc:"Opposite-transition glitch analysis (paper section 6)")
    Term.(
      const (fun () g fp rp tf tr s m -> run_glitch g fp rp tf tr s m)
      $ domains_setup $ gate_arg $ fall_pin $ rise_pin $ tau_fall $ tau_rise
      $ sep $ find_min)

let lint_cmd =
  let files =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "Netlist (text or binary) or characterized-store file to lint.")
  in
  let fanout_limit =
    Arg.(
      value & opt int Netlist_lint.default_options.Netlist_lint.fanout_limit
      & info [ "fanout-limit" ] ~docv:"N"
          ~doc:"Fanout above which PX112 fires.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static diagnostics for netlists, threshold sets and characterized \
          stores")
    Term.(
      const (fun obs fs fmt fo fl c -> finish_obs obs (run_lint fs fmt fo fl c))
      $ obs_setup $ files $ report_format_arg $ fail_on_arg $ fanout_limit
      $ codes_arg)

let sta_cmd =
  let required =
    Arg.(
      value
      & opt (some float) None
      & info [ "required" ] ~docv:"PS"
          ~doc:"Required arrival time; prints per-output slacks.")
  in
  let verify_eco =
    Arg.(
      value & flag
      & info [ "verify-eco" ]
          ~doc:
            "After the incremental update, rerun a full analysis of the \
             edited design and fail unless the two agree bit-for-bit.")
  in
  (* accepted as no-ops so existing scripts keep working: `sta` no
     longer builds prune masks, whose cost exceeded the evaluations they
     saved and which never changed a printed timing byte *)
  let no_op_flag name =
    Arg.(
      value & flag
      & info [ name ]
          ~deprecated:
            "deprecated and ignored, proxim sta no longer builds prune masks"
          ~doc:"Deprecated; has no effect.")
  in
  let summary =
    Arg.(
      value & flag
      & info [ "summary" ]
          ~doc:
            "Print only the switching-net count instead of the full \
             per-net arrival table (for large designs).")
  in
  Cmd.v
    (Cmd.info "sta"
       ~doc:
         "Static timing analysis of a netlist (text or binary): arrivals, \
          K-worst paths, slacks, incremental (ECO) re-analysis")
    Term.(
      const (fun () obs f p pa m k pk r e v (_ : bool) (_ : bool) s ->
          finish_obs obs (run_sta f p pa m k pk r e v s))
      $ domains_setup $ obs_setup $ file_arg $ pi_arg $ pi_all_arg
      $ mode_arg ~baselines:true $ models_arg `Oracle $ paths_arg $ required
      $ eco_arg $ verify_eco $ no_op_flag "no-prune" $ no_op_flag "sense"
      $ summary)

let verify_cmd =
  let sense =
    Arg.(
      value & flag
      & info [ "sense" ]
          ~doc:
            "Refine the classifications with static sensitization: pairs \
             whose pins can never both carry events under any consistent \
             logic assignment become never-proximate (false paths).")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Static proximity verification: interval abstract interpretation \
          over the timing graph, PX3xx diagnostics")
    Term.(
      const (fun () obs f p w tw m mk fmt fo c sn ->
          finish_obs obs (run_verify f p w tw m mk fmt fo c sn))
      $ domains_setup $ obs_setup $ file_arg $ pi_arg $ pi_window_arg
      $ tau_window_arg $ mode_arg ~baselines:false $ models_arg `Synthetic
      $ report_format_arg $ fail_on_arg $ codes_arg $ sense)

let hazards_cmd =
  let filter_margin =
    Arg.(
      value & opt float 25.
      & info [ "filter-margin" ] ~docv:"PS"
          ~doc:
            "PX403 band, picoseconds: filtered pairs clearing the minimum \
             separation by less than this are reported as near misses.")
  in
  let required =
    Arg.(
      value
      & opt (some float) None
      & info [ "required" ] ~docv:"PS"
          ~doc:
            "Primary-output required time for the observability pass; \
             defaults to the latest arrival bound in the design (every \
             reachable glitch observable).")
  in
  let sense =
    Arg.(
      value & flag
      & info [ "sense" ]
          ~doc:
            "Refine the verdicts with static sensitization: opposing-edge \
             pairs whose pins can never both carry events are dropped and \
             the cell verdicts recomputed (pulse pairs always kept).")
  in
  Cmd.v
    (Cmd.info "hazards"
       ~doc:
         "Static glitch/hazard analysis: edge-pair windows against the \
          section-6 minimum-separation rule, required-time observability, \
          PX4xx diagnostics")
    Term.(
      const (fun () obs f p w tw m mk fm r fmt fo c sn ->
          finish_obs obs (run_hazards f p w tw m mk fm r fmt fo c sn))
      $ domains_setup $ obs_setup $ file_arg $ pi_arg $ pi_window_arg
      $ tau_window_arg $ mode_arg ~baselines:false $ models_arg `Synthetic
      $ filter_margin $ required $ report_format_arg $ fail_on_arg $ codes_arg
      $ sense)

let sense_cmd =
  let consts =
    Arg.(
      value & opt_all string []
      & info [ "const" ] ~docv:"NET=0|1"
          ~doc:
            "Pin a quiet primary input at a logic level (repeatable).  Only \
             the net and edge of a --pi event matter here; inputs named by \
             neither --pi nor --const are free (quiet at an unknown level).")
  in
  let budget =
    Arg.(
      value & opt int Sense.default_budget
      & info [ "budget" ] ~docv:"CELLS"
          ~doc:
            "Fanin-cone cell limit per input pair before the implication \
             engine gives up (conservatively sensitizable).")
  in
  let support =
    Arg.(
      value & opt int Sense.default_max_support
      & info [ "support" ] ~docv:"N"
          ~doc:
            "Free-input limit per pair: at most 2^N cubes are enumerated \
             before the engine gives up.")
  in
  Cmd.v
    (Cmd.info "sense"
       ~doc:
         "Static sensitization analysis: ternary constant propagation, \
          bounded implication over input pairs, PX5xx diagnostics")
    Term.(
      const (fun () obs f p cn b su fmt fo c ->
          finish_obs obs (run_sense f p cn b su fmt fo c))
      $ domains_setup $ obs_setup $ file_arg $ pi_arg $ consts $ budget
      $ support $ report_format_arg $ fail_on_arg $ codes_arg)

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Per-phase time and allocation breakdown of an STA run (parse, \
          thresholds, characterize, build, analyze, report)")
    Term.(
      const (fun () obs f p pa m mk ->
          finish_obs obs (run_profile f p pa m mk))
      $ domains_setup $ obs_setup $ file_arg $ pi_arg $ pi_all_arg
      $ mode_arg ~baselines:false $ models_arg `Oracle)

let storage_cmd =
  let fan_in = Arg.(value & opt int 3 & info [ "fan-in" ]) in
  let points = Arg.(value & opt int 10 & info [ "points" ]) in
  Cmd.v (Cmd.info "storage" ~doc:"Storage-complexity comparison (paper figure 4-2)")
    Term.(const run_storage $ fan_in $ points)

let format_arg =
  Arg.(
    value
    & opt (some (enum [ ("text", `Text); ("binary", `Binary) ])) None
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output encoding: text or binary.  Default: by output extension \
           (.pxb is binary, anything else text).")

let gen_cmd =
  let cells =
    Arg.(
      required
      & opt (some int) None
      & info [ "cells"; "n" ] ~docv:"N" ~doc:"Number of cells to generate.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"PRNG seed; same seed and shape, same design, bit for bit.")
  in
  let depth =
    Arg.(
      value & opt int 16
      & info [ "depth" ] ~docv:"D" ~doc:"Number of logic layers (levels).")
  in
  let window =
    Arg.(
      value & opt int 8
      & info [ "window" ] ~docv:"W"
          ~doc:
            "Placement-locality window: inputs come from within ±W of the \
             cell's aligned position in the source layer.")
  in
  let reach =
    Arg.(
      value & opt int 3
      & info [ "reach" ] ~docv:"R"
          ~doc:
            "How many layers back non-dominant inputs may reach \
             (reconvergence).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write here instead of stdout (stdout is always text).")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a deterministic synthetic layered design for scale \
          testing")
    Term.(
      const (fun n s d w r o f -> run_gen n s d w r o f)
      $ cells $ seed $ depth $ window $ reach $ out $ format_arg)

let convert_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"INPUT"
          ~doc:"Netlist to read (text or binary, detected by content).")
  in
  let output =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUTPUT" ~doc:"File to write.")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert a netlist between the text (.ntl) and binary (.pxb) \
          encodings, preserving any thresholds directive")
    Term.(const run_convert $ input $ output $ format_arg)

let serve_cmd =
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Serve on $(docv): unix:PATH (or a bare path) for a Unix-domain \
             socket, tcp:HOST:PORT for TCP (port 0 picks a free port, \
             announced on stdout).")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Client mode: connect to a running daemon at $(docv).")
  in
  let send =
    Arg.(
      value & opt_all string []
      & info [ "send" ] ~docv:"JSON"
          ~doc:
            "With --connect: send $(docv) as one frame (verbatim, so even \
             deliberately malformed payloads can be exercised) and print \
             the response.  Repeatable, sent in order.")
  in
  let smoke =
    Arg.(
      value
      & opt (some string) None
      & info [ "smoke" ] ~docv:"FILE"
          ~doc:
            "With --connect: drive load/attach/eco/report against the \
             daemon for netlist $(docv) (text or binary) and print the \
             post-ECO report in `proxim sta` format (for byte-comparison in \
             CI); --pi, --pi-all, --eco, --mode and --paths shape the run.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived multi-session incremental timing daemon (and its \
          client modes) over a length-prefixed JSON protocol")
    Term.(
      const (fun () l c sn sm p pa e m k ->
          run_serve l c sn sm p pa e m k)
      $ domains_setup $ listen $ connect $ send $ smoke $ pi_arg $ pi_all_arg
      $ eco_arg $ mode_arg ~baselines:false $ paths_arg)

let () =
  let doc = "temporal-proximity gate delay modeling (DAC'96 reproduction)" in
  let main =
    Cmd.group (Cmd.info "proxim" ~version:"1.0.0" ~doc)
      [ vtc_cmd; delay_cmd; proximity_cmd; glitch_cmd; sta_cmd; verify_cmd;
        hazards_cmd; sense_cmd; profile_cmd; storage_cmd; lint_cmd; gen_cmd;
        convert_cmd; serve_cmd ]
  in
  exit (Cmd.eval' main)

(* The benchmark's OCaml half, driven by run.py.  Every command prints
   one JSON line {"ok", "errors", "metrics", "details"}; "ok" is false
   when an output check failed.

     pb replay-sta DESIGN --models synthetic|oracle --domains N
        --paths K --cli-lines FILE
       The traced in-process replay of `proxim sta --pi-all fall:200:0
       --summary`: one span around each public call into a layer, the
       model wrapper, GC deltas and the public counters.  Checks the
       replayed IR against Timing.Reference and the report lines against
       the CLI's.

     pb serve-client --socket PATH --seed S --cells N --cycles C
        [--setup-only]
       Two closed-loop sessions against a running `proxim serve`:
       setup (gen + two attaches), C script cycles per session, the
       daemon's own latency histograms, and the final check of each
       session's report bytes against an offline re-analysis.

     pb serve-replay --seed S --cells N --requests R
       The same two scripts replayed in-process with a span around each
       engine, codec and framing call.

     pb cli-trace FILE --wall SECONDS
       Span totals and coverage of a Chrome trace written by
       `proxim sta --trace FILE`. *)

module Tech = Proxim_gates.Tech
module Gate = Proxim_gates.Gate
module Vtc = Proxim_vtc.Vtc
module Models = Proxim_macromodel.Models
module Design = Proxim_sta.Design
module Sta = Proxim_sta.Sta
module Prune = Proxim_sta.Prune
module Netlist_bin = Proxim_sta.Netlist_bin
module Synthgen = Proxim_sta.Synthgen
module Timing = Proxim_timing.Timing
module Reference = Proxim_timing.Reference
module Verify = Proxim_verify.Verify
module Interval = Proxim_verify.Interval
module Hazard = Proxim_hazard.Hazard
module Memo_cache = Proxim_util.Memo_cache
module Pool = Proxim_util.Pool
module Metrics = Proxim_obs.Metrics
module Serve = Proxim_serve.Serve
module Frame = Proxim_serve.Frame
module Json = Proxim_lint.Json
module Stats = Perfbench.Stats
module Spans = Perfbench.Spans
module Timed_models = Perfbench.Timed_models
module Script = Perfbench.Script

let tech = Tech.generic_5v
let now = Unix.gettimeofday

(* Depth of the served design: the `proxim gen` default, which the
   served `gen` request states explicitly because the op's own default
   (4) differs.  The offline twin must use the same value. *)
let serve_depth = 4

(* --- result line -------------------------------------------------------- *)

let errors = ref []
let check_failed fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt

let emit ?(details = []) metrics =
  let num v = if Float.is_finite v then Json.Number v else Json.Null in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("ok", Json.Bool (!errors = []));
            ("errors", Json.List (List.rev_map (fun e -> Json.String e) !errors));
            ("metrics", Json.Obj (List.map (fun (k, v) -> (k, num v)) metrics));
            ("details", Json.Obj details);
          ]))

let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b
let median_or_zero l = match l with [] -> 0. | l -> Stats.median (Array.of_list l)
let mean l = match l with [] -> 0. | l -> List.fold_left ( +. ) 0. l /. fi (List.length l)

(* --- shared pieces ------------------------------------------------------- *)

(* the CLI's threshold choice: the file's, else the first cell's gate *)
let thresholds design file_th =
  match file_th with
  | Some th -> th
  | None -> (
    match Design.cells design with
    | c :: _ -> Vtc.thresholds c.Design.gate
    | [] -> (
      match Gate.of_name tech "inv" with
      | Ok g -> Vtc.thresholds g
      | Error m -> failwith m))

let ps s = s *. 1e12

(* the report lines `proxim sta --summary --paths K` prints *)
let report_lines (report : Sta.report) paths =
  Printf.sprintf "arrivals: %d switching nets" (List.length report.Sta.arrivals)
  ::
  (match report.Sta.critical_po with
   | None -> [ "no primary output switches" ]
   | Some (po, a) ->
     Printf.sprintf "critical output: %s at %.1f ps" po (ps a.Sta.time)
     :: List.mapi
          (fun i (p : Sta.path) ->
            Printf.sprintf "path #%d (%8.1f ps): %s" (i + 1)
              (ps p.Sta.path_arrival)
              (String.concat " <- " p.Sta.path_nets))
          paths)

(* bit-exact report equality: names, edges and the float bits *)
let same_report (a : Sta.report) (b : Sta.report) =
  let bits (x : Sta.arrival) =
    (Int64.bits_of_float x.Sta.time, Int64.bits_of_float x.Sta.slew, x.Sta.edge)
  in
  let view (r : Sta.report) =
    ( List.map (fun (n, x) -> (n, bits x)) r.Sta.arrivals,
      Option.map (fun (n, x) -> (n, bits x)) r.Sta.critical_po,
      r.Sta.predecessors )
  in
  view a = view b

let cache_metrics (cs : Memo_cache.stats) =
  let queries = cs.Memo_cache.hits + cs.Memo_cache.misses + cs.Memo_cache.waits in
  [
    ("memo_cache.hits", fi cs.Memo_cache.hits);
    ("memo_cache.misses", fi cs.Memo_cache.misses);
    ("memo_cache.waits", fi cs.Memo_cache.waits);
    ("memo_cache.entries", fi cs.Memo_cache.entries);
    ("memo_cache.hit_ratio", ratio (fi cs.Memo_cache.hits) (fi queries));
  ]

type pool_mark = { tasks : int; steals : int; jobs : int }

let pool_mark () =
  {
    tasks = Pool.tasks_dispatched ();
    steals = Pool.steals ();
    jobs = Pool.parallel_jobs ();
  }

let pool_metrics m0 =
  let m1 = pool_mark () in
  [
    ("pool.tasks", fi (m1.tasks - m0.tasks));
    ("pool.steals", fi (m1.steals - m0.steals));
    ("pool.parallel_jobs", fi (m1.jobs - m0.jobs));
  ]

let gc_metrics (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  [
    ( "gc.minor_collections",
      fi (g1.Gc.minor_collections - g0.Gc.minor_collections) );
    ( "gc.major_collections",
      fi (g1.Gc.major_collections - g0.Gc.major_collections) );
  ]

(* Minor words one wrapped oracle call allocates beyond the bare call
   (the boxed clock readings), so allocation per cell can be reported
   net of the measuring wrapper. *)
let wrapper_words_per_call () =
  match Gate.of_name tech "nand2" with
  | Error m -> failwith m
  | Ok g ->
    let m = Models.synthetic ~memo:false g in
    let w = Timed_models.wrap (Timed_models.create ()) (fun _ -> m) in
    let cell =
      { Design.name = "cal"; gate = g; input_nets = [||]; output_net = "cal" }
    in
    let wm = w cell in
    let n = 10_000 in
    let words (md : Models.t) =
      let w0 = Gc.minor_words () in
      for i = 1 to n do
        ignore
          (md.Models.delay1 ~pin:0 ~edge:Proxim_measure.Measure.Fall
             ~tau:(fi i *. 1e-13)
            : float)
      done;
      Gc.minor_words () -. w0
    in
    ignore (words wm : float);
    Float.max 0. ((words wm -. words m) /. fi n)

let snapshot_json () =
  match Json.of_string (Metrics.to_json (Metrics.snapshot ())) with
  | Ok j -> j
  | Error m -> Json.String ("unparsable metrics snapshot: " ^ m)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* --- replay-sta ---------------------------------------------------------- *)

let replay_sta ~design_file ~models_kind ~domains ~paths_k ~cli_lines =
  Pool.set_default_domains domains;
  Metrics.install_util_sources ();
  let words_per_call = wrapper_words_per_call () in
  let sp = Spans.create () in
  let span name f = Spans.with_ sp name f in
  let tm = Timed_models.create () in
  let g0 = Gc.quick_stat () and p0 = pool_mark () in
  let t_start = now () in
  let _name, design, file_th =
    span "netlist_bin.read" (fun () ->
        match Netlist_bin.read_file tech design_file with
        | Ok d -> d
        | Error m -> failwith m)
  in
  let th = span "vtc.thresholds" (fun () -> thresholds design file_th) in
  let factory =
    span "sta.factory" (fun () ->
        match models_kind with
        | `Synthetic -> Sta.synthetic_factory ()
        | `Oracle -> Sta.oracle_factory design th)
  in
  let models = Timed_models.wrap tm factory.Sta.models in
  let pi, events =
    span "sta.stimulus" (fun () ->
        let a = Script.initial_arrival in
        let pi = List.map (fun n -> (n, a)) (Design.primary_inputs design) in
        ( pi,
          List.map
            (fun (n, (a : Sta.arrival)) ->
              {
                Verify.ev_net = n;
                ev_edge = a.Sta.edge;
                ev_time = Interval.make a.Sta.time a.Sta.time;
                ev_tau = Interval.make a.Sta.slew a.Sta.slew;
              })
            pi ))
  in
  let v =
    span "verify.analyze" (fun () ->
        let v =
          Verify.analyze ~mode:Sta.Proximity ~models ~thresholds:th design
            ~pi:events
        in
        ignore (Verify.summary v : Verify.summary);
        v)
  in
  let h =
    span "hazard.analyze" (fun () ->
        let h =
          Hazard.analyze ~mode:Sta.Proximity ~models ~thresholds:th design
            ~pi:events
        in
        ignore (Hazard.summary h : Hazard.summary);
        h)
  in
  let prune =
    span "prune.make" (fun () ->
        Prune.make ~quiet:(Hazard.quiet_mask h)
          ~never_proximate:(Verify.prune_mask v) ())
  in
  let ir =
    span "sta.build_ir" (fun () ->
        Sta.build_ir ~mode:Sta.Proximity ~prune ~models ~thresholds:th design
          ~pi)
  in
  let eval0 = Timed_models.eval_s tm and calls0 = Timed_models.calls tm in
  let w0 = Gc.minor_words () in
  let stats = span "timing.analyze" (fun () -> Sta.reanalyze ir) in
  let words = Gc.minor_words () -. w0 in
  let model_s = Timed_models.eval_s tm -. eval0 in
  let model_calls = Timed_models.calls tm - calls0 in
  let report = span "sta.report" (fun () -> Sta.report ir) in
  let paths =
    span "timing.paths" (fun () ->
        match report.Sta.critical_po with
        | None -> []
        | Some (po, _) -> Sta.worst_paths ir ~po ~k:paths_k)
  in
  let cs = span "sta.cache_stats" (fun () -> factory.Sta.factory_stats ()) in
  let t_end = now () in
  let evaluated = stats.Timing.evaluated in
  let total = Spans.total sp in
  let transients =
    match models_kind with `Oracle -> cs.Memo_cache.misses | `Synthetic -> 0
  in
  let eval_s = Timed_models.eval_s tm in
  let net_words = words -. (fi model_calls *. words_per_call) in
  (* read every counter before the checks re-run the engine *)
  let metrics =
    [
      ("netlist_bin.read_s", total "netlist_bin.read");
      ("verify.analyze_s", total "verify.analyze");
      ("hazard.analyze_s", total "hazard.analyze");
      ( "prune.build_s",
        total "verify.analyze" +. total "hazard.analyze" +. total "prune.make"
      );
      ("prune.skip_ratio", ratio (fi (Sta.pruned_evaluations ir)) (fi evaluated));
      ("sta.build_ir_s", total "sta.build_ir");
      ("timing.analyze_s", total "timing.analyze");
      ("timing.self_s", total "timing.analyze" -. model_s);
      ("timing.cells_evaluated", fi evaluated);
      ("gc.minor_words_per_cell", ratio net_words (fi evaluated));
      ("macromodel.calls", fi (Timed_models.calls tm));
      ("macromodel.eval_s", eval_s);
      ("spice.transients", fi transients);
      ("spice.ms_per_transient", ratio (eval_s *. 1e3) (fi transients));
      ("sta.report_s", total "sta.report");
      ("timing.paths_s", total "timing.paths");
      ("coverage", Stats.coverage ~lo:t_start ~hi:t_end (Spans.top_level sp));
    ]
    @ cache_metrics cs @ pool_metrics p0 @ gc_metrics g0
  in
  let details =
    [
      ("replay_wall_s", Json.Number (t_end -. t_start));
      ("wrapper_words_per_call", Json.Number words_per_call);
      ( "prune_counts",
        let c = Prune.counts prune in
        Json.Obj
          [
            ("quiet", Json.Number (fi c.Prune.quiet));
            ("never_proximate", Json.Number (fi c.Prune.never_proximate));
            ("unsensitizable", Json.Number (fi c.Prune.unsensitizable));
          ] );
      ("metrics_snapshot", snapshot_json ());
      ("spans", Spans.to_json sp);
    ]
  in
  (* output checks, outside the replayed window *)
  if not (Reference.agrees (Sta.timing ir)) then
    check_failed "replayed IR disagrees with Timing.Reference";
  let full =
    Sta.build_ir ~mode:Sta.Proximity ~models:factory.Sta.models ~thresholds:th
      design ~pi
  in
  ignore (Sta.reanalyze full : Timing.stats);
  if not (same_report report (Sta.report full)) then
    check_failed "pruned and unpruned replays differ";
  let mine = report_lines report paths and cli = read_lines cli_lines in
  if mine <> cli then
    check_failed "replayed report lines differ from the CLI's (%d vs %d lines)"
      (List.length mine) (List.length cli);
  emit ~details metrics

(* --- serve-client -------------------------------------------------------- *)

let ok_prefix = "{\"ok\":true"
let is_ok payload = String.starts_with ~prefix:ok_prefix payload

let rpc fd payload =
  Frame.write fd payload;
  match Frame.read fd with
  | Ok s -> s
  | Error e -> failwith ("serve: " ^ Frame.read_error_to_string e)

let obj fields = Json.to_string (Json.Obj fields)

let initial_pi design =
  List.map (fun n -> (n, Script.initial_arrival)) (Design.primary_inputs design)

(* the offline twin of one session: same design, models and stimulus *)
let offline_report design th factory pi =
  let ir =
    Sta.build_ir ~mode:Sta.Proximity ~models:factory.Sta.models ~thresholds:th
      design ~pi
  in
  ignore (Sta.reanalyze ir : Timing.stats);
  Sta.report ir

type session_log = {
  mutable samples : (Script.kind * float) list;
  mutable cycles : float list;  (** wall of each script cycle, s *)
  mutable attempted : int;
  mutable failed : int;
  mutable last_done : float;
  pi_state : (string, Sta.arrival) Hashtbl.t;
}

let run_session ~fd ~script ~requests log =
  let cycle_start = ref (now ()) in
  try
    while log.attempted < requests do
      let r = Script.next script in
      let t0 = now () in
      Frame.write fd r.Script.json;
      let resp = Frame.read fd in
      let t1 = now () in
      log.attempted <- log.attempted + 1;
      log.last_done <- t1;
      (match resp with
       | Ok payload when is_ok payload ->
         log.samples <- (r.Script.kind, t1 -. t0) :: log.samples;
         List.iter
           (function
             | Sta.Set_pi (net, Some a) -> Hashtbl.replace log.pi_state net a
             | Sta.Set_pi (net, None) -> Hashtbl.remove log.pi_state net
             | Sta.Touch_cell _ -> ())
           r.Script.ecos
       | Ok payload ->
         log.failed <- log.failed + 1;
         if log.failed = 1 then
           check_failed "%s request refused: %s"
             (Script.kind_name r.Script.kind)
             (String.sub payload 0 (min 200 (String.length payload)))
       | Error e ->
         (* the connection is gone: count it and end this session *)
         log.failed <- log.failed + 1;
         check_failed "session connection lost: %s" (Frame.read_error_to_string e);
         raise Exit);
      if log.attempted mod Script.cycle = 0 then begin
        log.cycles <- (t1 -. !cycle_start) :: log.cycles;
        cycle_start := t1
      end
    done
  with Exit -> ()

let hist_p50_ms metrics name =
  let open Json in
  let num k j = Option.bind (member k j) to_number in
  let int k j = Option.fold ~none:0 ~some:int_of_float (num k j) in
  match Option.bind (member "histograms" metrics) (member name) with
  | None -> 0.
  | Some h -> (
    let counts =
      match Option.bind (member "counts" h) to_list with
      | None -> [||]
      | Some l ->
        Array.of_list
          (List.map
             (fun c -> Option.fold ~none:0 ~some:int_of_float (to_number c))
             l)
    in
    match (num "log10_lo" h, num "log10_hi" h) with
    | Some log10_lo, Some log10_hi -> (
      match
        Stats.log_hist_quantile ~log10_lo ~log10_hi
          ~underflow:(int "underflow" h) ~overflow:(int "overflow" h) ~counts
          0.5
      with
      | Some s -> s *. 1e3
      | None -> 0.)
    | _ -> 0.)

let latency_metrics prefix samples =
  let a = Array.of_list samples in
  let tail p =
    match Stats.percentile a p with Some t -> t.Stats.value *. 1e3 | None -> 0.
  in
  [
    (prefix ^ "_p50_ms", tail 0.5);
    (prefix ^ "_p90_ms", tail 0.9);
    (prefix ^ "_samples", fi (Array.length a));
  ]

let serve_client ~socket ~seed ~cells ~cycles ~setup_only =
  let addr = `Unix socket in
  let fds = [| Serve.connect addr; Serve.connect addr |] in
  let expect what payload =
    if not (is_ok payload) then check_failed "%s refused: %s" what payload
  in
  let t0 = now () in
  expect "gen"
    (rpc fds.(0)
       (obj
          [
            ("op", Json.String "gen");
            ("cells", Json.Number (fi cells));
            ("depth", Json.Number (fi serve_depth));
            ("seed", Json.Number (fi seed));
            ("name", Json.String "bench");
          ]));
  Array.iter
    (fun fd ->
      expect "attach"
        (rpc fd
           (obj
              [
                ("op", Json.String "attach");
                ("design", Json.String "bench");
                ("pi_all", Serve.arrival_to_json Script.initial_arrival);
              ])))
    fds;
  let setup_s = now () -. t0 in
  let shutdown () =
    ignore (rpc fds.(0) (obj [ ("op", Json.String "shutdown") ]) : string);
    Array.iter Unix.close fds
  in
  if setup_only then begin
    shutdown ();
    emit [ ("setup_client_s", setup_s) ]
  end
  else begin
    let _, design = Synthgen.generate ~seed ~depth:serve_depth ~tech ~cells () in
    let th = thresholds design None in
    let factory = Sta.synthetic_factory ~seed:0 () in
    let pi0 = initial_pi design in
    let po =
      match (offline_report design th factory pi0).Sta.critical_po with
      | Some (po, _) -> po
      | None -> failwith "generated design has no switching output"
    in
    let pis = Array.of_list (Design.primary_inputs design) in
    let cell_names =
      Array.of_list (List.map (fun c -> c.Design.name) (Design.cells design))
    in
    let logs =
      Array.init 2 (fun _ ->
          {
            samples = [];
            cycles = [];
            attempted = 0;
            failed = 0;
            last_done = 0.;
            pi_state = Hashtbl.create 64;
          })
    in
    let t_start = now () in
    let threads =
      Array.mapi
        (fun i fd ->
          let script =
            Script.create ~seed ~session:i ~pis ~cells:cell_names ~po
          in
          Thread.create
            (fun () ->
              run_session ~fd ~script ~requests:(cycles * Script.cycle) logs.(i))
            ())
        fds
    in
    Array.iter Thread.join threads;
    let t_stop = Array.fold_left (fun m l -> Float.max m l.last_done) t_start logs in
    (* final check: each session's report bytes against an offline
       re-analysis of that session's final primary-input state *)
    Array.iteri
      (fun i fd ->
        let served = rpc fd (obj [ ("op", Json.String "report") ]) in
        let pi =
          List.map
            (fun (n, a) ->
              (n, Option.value (Hashtbl.find_opt logs.(i).pi_state n) ~default:a))
            pi0
        in
        let expected =
          obj
            [
              ("ok", Json.Bool true);
              ( "report",
                Serve.report_to_json (offline_report design th factory pi) );
            ]
        in
        if served <> expected then
          check_failed "session %d: served report differs from offline (%d vs %d bytes)"
            i (String.length served) (String.length expected))
      fds;
    let server =
      match
        Json.of_string (rpc fds.(0) (obj [ ("op", Json.String "metrics") ]))
      with
      | Ok j -> Option.value (Json.member "metrics" j) ~default:Json.Null
      | Error m ->
        check_failed "metrics response: %s" m;
        Json.Null
    in
    shutdown ();
    let all = Array.to_list logs in
    let of_kind k =
      List.concat_map
        (fun l ->
          List.filter_map
            (fun (k', dt) -> if k' = k then Some dt else None)
            l.samples)
        all
    in
    let attempted = List.fold_left (fun s l -> s + l.attempted) 0 all in
    let failed = List.fold_left (fun s l -> s + l.failed) 0 all in
    let completed = attempted - failed in
    let eco = latency_metrics "eco" (of_kind Script.Eco) in
    let server_eco = hist_p50_ms server "serve.eco_seconds" in
    let eco_p50 = List.assoc "eco_p50_ms" eco in
    emit
      ~details:[ ("server_metrics", server) ]
      ([
         ("setup_client_s", setup_s);
         ("attempted", fi attempted);
         ("failed", fi failed);
         ("req_per_s", ratio (fi completed) (t_stop -. t_start));
         ( "cycle_median_s",
           median_or_zero (List.concat_map (fun l -> l.cycles) all) );
         ( "mean_request_ms",
           1e3 *. mean (List.concat_map (fun l -> List.map snd l.samples) all)
         );
         ("server_eco_p50_ms", server_eco);
         ("server_query_p50_ms", hist_p50_ms server "serve.query_seconds");
         ("outside_handler_ms", eco_p50 -. server_eco);
       ]
      @ eco
      @ latency_metrics "query" (of_kind Script.Report)
      @ latency_metrics "paths" (of_kind Script.Paths)
      @ latency_metrics "slacks" (of_kind Script.Slacks))
  end

(* --- serve-replay -------------------------------------------------------- *)

let serve_replay ~seed ~cells ~requests =
  Metrics.install_util_sources ();
  let words_per_call = wrapper_words_per_call () in
  let sp = Spans.create () in
  let span name f = Spans.with_ sp name f in
  let tm = Timed_models.create () in
  let g0 = Gc.quick_stat () and p0 = pool_mark () in
  let t_start = now () in
  let _, design =
    span "synthgen.generate" (fun () ->
        Synthgen.generate ~seed ~depth:serve_depth ~tech ~cells ())
  in
  let th = span "vtc.thresholds" (fun () -> thresholds design None) in
  let factory = span "sta.factory" (fun () -> Sta.synthetic_factory ~seed:0 ()) in
  let models = Timed_models.wrap tm factory.Sta.models in
  let pi0 = initial_pi design in
  let irs =
    Array.init 2 (fun _ ->
        let ir =
          span "sta.build_ir" (fun () ->
              Sta.build_ir ~mode:Sta.Proximity ~models ~thresholds:th design
                ~pi:pi0)
        in
        ignore (span "timing.analyze" (fun () -> Sta.reanalyze ir) : Timing.stats);
        ir)
  in
  let po =
    match
      (span "sta.report" (fun () -> Sta.report irs.(0))).Sta.critical_po
    with
    | Some (po, _) -> po
    | None -> failwith "generated design has no switching output"
  in
  let pis = Array.of_list (Design.primary_inputs design) in
  let cell_names =
    Array.of_list (List.map (fun c -> c.Design.name) (Design.cells design))
  in
  let scripts =
    Array.init 2 (fun i -> Script.create ~seed ~session:i ~pis ~cells:cell_names ~po)
  in
  let sa, sb = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let per_eco = ref [] and eco_words = ref 0. and eco_calls = ref 0 in
  let report_bytes = ref [] in
  let evaluated = ref 0 in
  let loop_start = now () in
  for k = 0 to requests - 1 do
    let s = k mod 2 in
    let ir = irs.(s) in
    let r = Script.next scripts.(s) in
    ignore
      (span "serve.decode" (fun () -> Json.of_string r.Script.json)
        : (Json.t, string) result);
    (* the daemon's encode step: the response tree and its bytes *)
    let encode fields =
      span ("serve.encode." ^ Script.kind_name r.Script.kind) (fun () ->
          Json.to_string (Json.Obj (("ok", Json.Bool true) :: fields ())))
    in
    let response =
      match r.Script.kind with
      | Script.Eco ->
        let w0 = Gc.minor_words () and c0 = Timed_models.calls tm in
        let st = span "sta.update" (fun () -> Sta.update ir r.Script.ecos) in
        eco_words := !eco_words +. (Gc.minor_words () -. w0);
        eco_calls := !eco_calls + (Timed_models.calls tm - c0);
        per_eco := fi st.Timing.evaluated :: !per_eco;
        evaluated := !evaluated + st.Timing.evaluated;
        encode (fun () -> [ ("stats", Serve.stats_to_json st) ])
      | Script.Report ->
        let rep = span "sta.report" (fun () -> Sta.report ir) in
        encode (fun () -> [ ("report", Serve.report_to_json rep) ])
      | Script.Paths ->
        let paths = span "timing.paths" (fun () -> Sta.worst_paths ir ~po ~k:5) in
        let path_json (p : Sta.path) =
          Json.Obj
            [
              ("arrival", Json.Number p.Sta.path_arrival);
              ("nets", Json.List (List.map (fun n -> Json.String n) p.Sta.path_nets));
            ]
        in
        encode (fun () -> [ ("paths", Json.List (List.map path_json paths)) ])
      | Script.Slacks ->
        let slacks =
          span "sta.slacks" (fun () ->
              Sta.po_slacks (Sta.design ir) (Sta.report ir)
                ~required:Script.slack_required)
        in
        let slack_json (n, v) = Json.List [ Json.String n; Json.Number v ] in
        encode (fun () -> [ ("slacks", Json.List (List.map slack_json slacks)) ])
    in
    if r.Script.kind = Script.Report then begin
      report_bytes := fi (String.length response) :: !report_bytes;
      let got =
        span "frame.roundtrip" (fun () ->
            let writer = Thread.create (fun () -> Frame.write sa response) () in
            let got = Frame.read sb in
            Thread.join writer;
            got)
      in
      if got <> Ok response then check_failed "frame round trip altered a report";
      (match span "json.decode" (fun () -> Json.of_string response) with
       | Ok _ -> ()
       | Error m -> check_failed "report response does not parse: %s" m)
    end
  done;
  let t_end = now () in
  Unix.close sa;
  Unix.close sb;
  let cs = factory.Sta.factory_stats () in
  let med name scale = scale *. median_or_zero (Spans.durations sp name) in
  let total = Spans.total sp in
  let updates = fi (List.length !per_eco) in
  let net_words = !eco_words -. (fi !eco_calls *. words_per_call) in
  emit
    ~details:
      [
        ("replay_wall_s", Json.Number (t_end -. t_start));
        ("replay_loop_s", Json.Number (t_end -. loop_start));
        ("replay_requests", Json.Number (fi requests));
        ("updates", Json.Number updates);
        ("metrics_snapshot", snapshot_json ());
      ]
    ([
       ("sta.build_ir_s", total "sta.build_ir");
       ("timing.analyze_s", total "timing.analyze");
       ("timing.cells_evaluated", fi !evaluated);
       ("timing.cells_evaluated_per_eco", mean !per_eco);
       ("gc.minor_words_per_cell", ratio net_words (fi !evaluated));
       ("macromodel.calls", fi (Timed_models.calls tm));
       ("macromodel.eval_s", Timed_models.eval_s tm);
       ("sta.update_ms", med "sta.update" 1e3);
       ("sta.report_s", med "sta.report" 1.);
       ("timing.paths_s", med "timing.paths" 1.);
       ("serve.encode_ms", med "serve.encode.report" 1e3);
       ("serve.report_bytes", median_or_zero !report_bytes);
       ("json.decode_ms", med "json.decode" 1e3);
       ("frame.roundtrip_ms", med "frame.roundtrip" 1e3);
       ( "coverage",
         Stats.coverage ~lo:t_start ~hi:t_end (Spans.top_level sp) );
     ]
    @ cache_metrics cs @ pool_metrics p0 @ gc_metrics g0)

(* --- cli-trace ----------------------------------------------------------- *)

let cli_trace ~file ~wall =
  let text = In_channel.with_open_text file In_channel.input_all in
  match Json.of_string text with
  | Error m -> failwith ("trace file: " ^ m)
  | Ok j ->
    let evs =
      Option.value ~default:[] (Option.bind (Json.member "traceEvents" j) Json.to_list)
    in
    let totals = Hashtbl.create 16 in
    let intervals =
      List.filter_map
        (fun e ->
          let num k = Option.bind (Json.member k e) Json.to_number in
          match
            (Option.bind (Json.member "name" e) Json.to_string_value, num "ts", num "dur")
          with
          | Some name, Some ts, Some dur ->
            let prev = Option.value (Hashtbl.find_opt totals name) ~default:0. in
            Hashtbl.replace totals name (prev +. (dur *. 1e-6));
            Some (ts *. 1e-6, (ts +. dur) *. 1e-6)
          | _ -> None)
        evs
    in
    let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) totals []) in
    emit
      ~details:
        [
          ( "span_totals_s",
            Json.Obj
              (List.map (fun n -> (n, Json.Number (Hashtbl.find totals n))) names)
          );
        ]
      [
        ("span_coverage", Stats.coverage ~lo:0. ~hi:wall intervals);
        ("spans", fi (List.length intervals));
      ]

(* --- command line -------------------------------------------------------- *)

let () =
  let argv = Array.to_list Sys.argv in
  let cmd, rest =
    match argv with _ :: cmd :: rest -> (cmd, rest) | _ -> ("", [])
  in
  let opt name =
    let rec go = function
      | k :: v :: _ when k = name -> Some v
      | _ :: tl -> go tl
      | [] -> None
    in
    go rest
  in
  let req name =
    match opt name with
    | Some v -> v
    | None ->
      prerr_endline ("pb " ^ cmd ^ ": missing " ^ name);
      exit 2
  in
  let int name = int_of_string (req name) in
  let positional () =
    match rest with
    | p :: _ when not (String.starts_with ~prefix:"--" p) -> p
    | _ ->
      prerr_endline ("pb " ^ cmd ^ ": missing input file");
      exit 2
  in
  (match cmd with
   | "replay-sta" ->
     let models_kind =
       match req "--models" with
       | "synthetic" -> `Synthetic
       | "oracle" -> `Oracle
       | m ->
         prerr_endline ("pb: unknown models " ^ m);
         exit 2
     in
     replay_sta ~design_file:(positional ()) ~models_kind
       ~domains:(int "--domains") ~paths_k:(int "--paths")
       ~cli_lines:(req "--cli-lines")
   | "serve-client" ->
     serve_client ~socket:(req "--socket") ~seed:(int "--seed")
       ~cells:(int "--cells")
       ~cycles:(int "--cycles")
       ~setup_only:(List.mem "--setup-only" rest)
   | "serve-replay" ->
     serve_replay ~seed:(int "--seed") ~cells:(int "--cells")
       ~requests:(int "--requests")
   | "cli-trace" ->
     cli_trace ~file:(positional ()) ~wall:(float_of_string (req "--wall"))
   | _ ->
     prerr_endline
       "usage: pb (replay-sta | serve-client | serve-replay | cli-trace) ...";
     exit 2);
  exit (if !errors = [] then 0 else 1)

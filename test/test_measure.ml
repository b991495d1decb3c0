(* Tests for measurement semantics and the golden-reference runner. *)

module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Pwl = Proxim_waveform.Pwl
module Measure = Proxim_measure.Measure

let tech = Tech.generic_5v
let nand3 = Gate.nand tech ~fan_in:3
let th = lazy (Vtc.thresholds ~points:201 nand3)

let check_float ?(eps = 1e-12) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let test_input_threshold () =
  let th = Lazy.force th in
  check_float "rise uses vil" th.Vtc.vil
    (Measure.input_threshold th Measure.Rise);
  check_float "fall uses vih" th.Vtc.vih
    (Measure.input_threshold th Measure.Fall)

let test_ramp_positioning () =
  let th = Lazy.force th in
  List.iter
    (fun edge ->
      let stim = { Measure.edge; tau = 400e-12; cross_time = 2e-9 } in
      let wave = Measure.ramp_of_stimulus th stim in
      match Measure.input_cross_time th wave edge with
      | Some t -> check_float ~eps:1e-15 "crossing placed" 2e-9 t
      | None -> Alcotest.fail "no crossing")
    [ Measure.Rise; Measure.Fall ]

let test_ramp_full_swing () =
  let th = Lazy.force th in
  let stim = { Measure.edge = Measure.Rise; tau = 100e-12; cross_time = 1e-9 } in
  let wave = Measure.ramp_of_stimulus th stim in
  check_float "starts at 0" 0. (Pwl.value wave 0.);
  check_float "ends at vdd" 5. (Pwl.value wave 5e-9)

let test_separation () =
  let th = Lazy.force th in
  let mk cross edge = Measure.ramp_of_stimulus th { Measure.edge; tau = 200e-12; cross_time = cross } in
  let wi = mk 1e-9 Measure.Fall and wj = mk 1.3e-9 Measure.Fall in
  match Measure.separation th ~i:(wi, Measure.Fall) ~j:(wj, Measure.Fall) with
  | Some s -> check_float ~eps:1e-15 "s_ij" 0.3e-9 s
  | None -> Alcotest.fail "no separation"

let test_opposite () =
  Alcotest.(check bool) "rise<->fall" true
    (Measure.opposite Measure.Rise = Measure.Fall
     && Measure.opposite Measure.Fall = Measure.Rise)

let test_single_input_delay_positive_and_monotone () =
  let th = Lazy.force th in
  (* the whole point of the threshold rule: delay stays positive and grows
     with the input transition time (paper §2) *)
  List.iter
    (fun edge ->
      let prev = ref 0. in
      List.iter
        (fun tau ->
          let obs = Measure.single_input nand3 th ~pin:0 ~edge ~tau in
          Alcotest.(check bool) "positive" true (obs.Measure.delay > 0.);
          Alcotest.(check bool) "monotone in tau" true
            (obs.Measure.delay >= !prev -. 1e-12);
          Alcotest.(check bool) "transition positive" true
            (obs.Measure.out_transition > 0.);
          prev := obs.Measure.delay)
        [ 50e-12; 150e-12; 400e-12; 1000e-12; 2500e-12 ])
    [ Measure.Rise; Measure.Fall ]

let test_stack_position_affects_delay () =
  let th = Lazy.force th in
  let d pin =
    (Measure.single_input nand3 th ~pin ~edge:Measure.Rise ~tau:300e-12)
      .Measure.delay
  in
  (* pin 0 (next to the output) discharges through the whole stack below
     it, so it is the slowest for rising inputs *)
  Alcotest.(check bool) "a slower than c" true (d 0 > d 2)

let test_load_slows_gate () =
  let th = Lazy.force th in
  let obs_small =
    Measure.single_input ~load:50e-15 nand3 th ~pin:0 ~edge:Measure.Rise
      ~tau:300e-12
  in
  let obs_big =
    Measure.single_input ~load:400e-15 nand3 th ~pin:0 ~edge:Measure.Rise
      ~tau:300e-12
  in
  Alcotest.(check bool) "bigger load, bigger delay" true
    (obs_big.Measure.delay > obs_small.Measure.delay *. 1.5);
  Alcotest.(check bool) "bigger load, slower output" true
    (obs_big.Measure.out_transition > obs_small.Measure.out_transition)

let test_multi_input_matches_single_at_large_separation () =
  let th = Lazy.force th in
  let tau = 300e-12 in
  let single =
    Measure.single_input nand3 th ~pin:0 ~edge:Measure.Fall ~tau
  in
  (* other input crosses far outside the proximity window *)
  let stimuli =
    [
      (0, { Measure.edge = Measure.Fall; tau; cross_time = 1e-9 });
      (1, { Measure.edge = Measure.Fall; tau; cross_time = 4e-9 });
    ]
  in
  let multi = Measure.multi_input nand3 th ~stimuli ~ref_pin:0 in
  Alcotest.(check bool) "delay unaffected" true
    (Float.abs (multi.Measure.delay -. single.Measure.delay)
     < 0.02 *. single.Measure.delay)

let test_proximity_speeds_up_falling_pair () =
  let th = Lazy.force th in
  let tau = 300e-12 in
  let single = Measure.single_input nand3 th ~pin:0 ~edge:Measure.Fall ~tau in
  let stimuli =
    [
      (0, { Measure.edge = Measure.Fall; tau; cross_time = 2e-9 });
      (1, { Measure.edge = Measure.Fall; tau; cross_time = 2e-9 });
    ]
  in
  let multi = Measure.multi_input nand3 th ~stimuli ~ref_pin:0 in
  (* two conducting PMOS in parallel: output rises faster (Fig 1-2a) *)
  Alcotest.(check bool) "simultaneous falling pair is faster" true
    (multi.Measure.delay < single.Measure.delay);
  Alcotest.(check bool) "output transition faster too" true
    (multi.Measure.out_transition < single.Measure.out_transition)

let test_proximity_slows_down_rising_pair () =
  let th = Lazy.force th in
  let tau = 300e-12 in
  let single = Measure.single_input nand3 th ~pin:0 ~edge:Measure.Rise ~tau in
  let stimuli =
    [
      (0, { Measure.edge = Measure.Rise; tau; cross_time = 2e-9 });
      (1, { Measure.edge = Measure.Rise; tau; cross_time = 2e-9 });
    ]
  in
  let multi = Measure.multi_input nand3 th ~stimuli ~ref_pin:0 in
  (* the series stack waits for both transistors (Fig 1-2c) *)
  Alcotest.(check bool) "simultaneous rising pair is slower" true
    (multi.Measure.delay > single.Measure.delay)

let test_multi_input_validation () =
  let th = Lazy.force th in
  Alcotest.check_raises "ref not in stimuli"
    (Invalid_argument "Measure.multi_input: ref_pin not in stimuli")
    (fun () ->
      ignore
        (Measure.multi_input nand3 th
           ~stimuli:[ (0, { Measure.edge = Measure.Fall; tau = 1e-10; cross_time = 1e-9 }) ]
           ~ref_pin:1));
  Alcotest.check_raises "mixed edges"
    (Invalid_argument "Measure.multi_input: mixed edge directions")
    (fun () ->
      ignore
        (Measure.multi_input nand3 th
           ~stimuli:
             [
               (0, { Measure.edge = Measure.Fall; tau = 1e-10; cross_time = 1e-9 });
               (1, { Measure.edge = Measure.Rise; tau = 1e-10; cross_time = 1e-9 });
             ]
           ~ref_pin:0))

(* ------------------------------------------------------------------ *)
(* Golden-kernel pins                                                   *)

(* Fixed thresholds keep these pins independent of the VTC sweeps. *)
let pin_th = { Vtc.vil = 1.5; vih = 3.4; vdd = 5. }

let pin_gate = function
  | "inv" -> Gate.inverter tech
  | "nand2" -> Gate.nand tech ~fan_in:2
  | "nor2" -> Gate.nor tech ~fan_in:2
  | "nand3" -> nand3
  | "aoi21" -> Gate.aoi21 tech
  | "inv-alpha" -> Gate.inverter Tech.generic_5v_alpha
  | name -> invalid_arg name

(* (gate, edge, input slew, delay, output transition) of
   [Measure.single_input] on pin 0, as [%h].  Captured from the simulator
   before its inner loop was made allocation-free: that rewrite had to
   keep every floating-point operation and its order, so any drift in
   the device model, the assembly, the LU or the step control shows
   here as a changed bit. *)
let single_pins =
  Measure.
    [
      ("inv", Rise, 100e-12, "0x1.343672bc944acp-34", "0x1.96956e157648p-35");
      ("inv", Rise, 400e-12, "0x1.6499a0497be88p-33", "0x1.382bffbe38fdp-34");
      ("inv", Rise, 1500e-12, "0x1.a81ae2e26dfc8p-32", "0x1.4bd5c0ee3036p-33");
      ("inv", Fall, 100e-12, "0x1.6a33c6e9b3a2p-34", "0x1.3163347dba17p-34");
      ("inv", Fall, 400e-12, "0x1.a4fbb2604ea94p-33", "0x1.72e5073806118p-34");
      ("inv", Fall, 1500e-12, "0x1.0e1afd05cb55cp-31", "0x1.67942edc08a8p-33");
      ("nand2", Rise, 100e-12, "0x1.c6a70ad943e4p-34", "0x1.df6b82f137848p-34");
      ("nand2", Rise, 400e-12, "0x1.ca2f3f00e026p-33", "0x1.fe3bff5e31a7p-34");
      ("nand2", Rise, 1500e-12, "0x1.0a16edaa7d85cp-31", "0x1.ad5ef22b31f2p-33");
      ("nand2", Fall, 100e-12, "0x1.7bf9be4221ae8p-34", "0x1.50714a3b4fb84p-34");
      ("nand2", Fall, 400e-12, "0x1.adda4afa13054p-33", "0x1.8c274822b9128p-34");
      ("nand2", Fall, 1500e-12, "0x1.059db190e5dp-31", "0x1.8bcd0e15648dp-33");
      ("nor2", Rise, 100e-12, "0x1.49028752884a4p-34", "0x1.ef82a9ce3565p-35");
      ("nor2", Rise, 400e-12, "0x1.78fbe108dc74p-33", "0x1.5c121b5c56c18p-34");
      ("nor2", Rise, 1500e-12, "0x1.a7fe0e89572cp-32", "0x1.7f411940bd5ap-33");
      ("nor2", Fall, 100e-12, "0x1.497ce53013e96p-33", "0x1.5caa122fee90ep-33");
      ("nor2", Fall, 400e-12, "0x1.0a9f777210632p-32", "0x1.6014a16668cacp-33");
      ("nor2", Fall, 1500e-12, "0x1.28b429b84a1acp-31", "0x1.eede3a4951ffp-33");
      ("nand3", Rise, 100e-12, "0x1.3a2e86fa77132p-33", "0x1.9680c995a3f16p-33");
      ("nand3", Rise, 400e-12, "0x1.135421139dff8p-32", "0x1.9662ea933612p-33");
      ("nand3", Rise, 1500e-12, "0x1.388cd9018aa88p-31", "0x1.0e36ec434b62p-32");
      ("nand3", Fall, 100e-12, "0x1.8e2ea06d3bdp-34", "0x1.6f80047f670cp-34");
      ("nand3", Fall, 400e-12, "0x1.b90284d09e3fp-33", "0x1.a4092d855584p-34");
      ("nand3", Fall, 1500e-12, "0x1.029edb357ca74p-31", "0x1.a6dc829dc7a7p-33");
      ("aoi21", Rise, 100e-12, "0x1.f055bdc12c48p-34", "0x1.1e401dce723b8p-33");
      ("aoi21", Rise, 400e-12, "0x1.e280256abe914p-33", "0x1.25cb45316a1a4p-33");
      ("aoi21", Rise, 1500e-12, "0x1.0ae2dfbcbf88cp-31", "0x1.ed320f48a32cp-33");
      ("aoi21", Fall, 100e-12, "0x1.5fc6b9f3c8a66p-33", "0x1.61107beb951eap-33");
      ("aoi21", Fall, 400e-12, "0x1.17838f954b25ap-32", "0x1.63b137856b7a4p-33");
      ("aoi21", Fall, 1500e-12, "0x1.22b303518ac1cp-31", "0x1.fe49b0cabdadp-33");
      ("inv-alpha", Rise, 100e-12, "0x1.ee85322d684a8p-34", "0x1.1a2c8664506acp-33");
      ("inv-alpha", Rise, 400e-12, "0x1.cd6d0efcd76e8p-33", "0x1.28d592f759d3p-33");
      ("inv-alpha", Rise, 1500e-12, "0x1.e0ee7bc40bbdp-32", "0x1.04473f4ae4b78p-32");
      ("inv-alpha", Fall, 100e-12, "0x1.429b0f18db9bap-33", "0x1.a0f5784fe7adap-33");
      ("inv-alpha", Fall, 400e-12, "0x1.19550f68d16cap-32", "0x1.a1d4b8fbb512cp-33");
      ("inv-alpha", Fall, 1500e-12, "0x1.49ce2c9883f78p-31", "0x1.1c73b1c53f8f8p-32");
    ]

(* (gate, edge, separation, delay, output transition) of [Dual.oracle]
   with pin 0 dominant (300 ps) and pin 1 switching (500 ps). *)
let dual_pins =
  Measure.
    [
      ("nand2", Rise, -150e-12, "0x1.95448bf70a1d8p-33", "0x1.e4a35b1fd77ep-34");
      ("nand2", Rise, 0., "0x1.efce09afc1458p-33", "0x1.0cc48b69dbcf8p-33");
      ("nand2", Rise, 200e-12, "0x1.c32e0f77a99cap-32", "0x1.1500fa962f9a8p-33");
      ("nand2", Fall, -150e-12, "0x1.1a8fc3996134p-34", "0x1.361b41c46594p-34");
      ("nand2", Fall, 0., "0x1.26b40708c7ef8p-33", "0x1.1c104fd108c6p-34");
      ("nand2", Fall, 200e-12, "0x1.660d825894cf4p-33", "0x1.55d9116fa6cbp-34");
      ("nor2", Rise, -150e-12, "0x1.01aefb2d295p-35", "0x1.16cd735d5573p-34");
      ("nor2", Rise, 0., "0x1.ec072b0d5af7p-34", "0x1.d6dbc3642d1p-35");
      ("nor2", Rise, 200e-12, "0x1.3b656c5f91dfcp-33", "0x1.178fb3113202p-34");
      ("nor2", Fall, -150e-12, "0x1.dadba5fd5f748p-33", "0x1.5cbdf2fd9198p-33");
      ("nor2", Fall, 0., "0x1.423bd9f1ca0e8p-32", "0x1.5f9d7247d292p-33");
      ("nor2", Fall, 200e-12, "0x1.06a8ce74ff139p-31", "0x1.6379b9575a5p-33");
    ]

let check_bits ctx (obs : Measure.observation) delay trans =
  Alcotest.(check string) (ctx ^ " delay") delay
    (Printf.sprintf "%h" obs.Measure.delay);
  Alcotest.(check string) (ctx ^ " transition") trans
    (Printf.sprintf "%h" obs.Measure.out_transition)

let edge_name = function Measure.Rise -> "rise" | Measure.Fall -> "fall"

let test_single_input_bits () =
  List.iter
    (fun (name, edge, tau, delay, trans) ->
      let obs = Measure.single_input (pin_gate name) pin_th ~pin:0 ~edge ~tau in
      check_bits (Printf.sprintf "%s %s %g" name (edge_name edge) tau) obs
        delay trans)
    single_pins

let test_dual_oracle_bits () =
  List.iter
    (fun (name, edge, sep, delay, trans) ->
      let obs =
        Proxim_macromodel.Dual.oracle (pin_gate name) pin_th ~dom:0 ~other:1
          ~edge ~tau_dom:300e-12 ~tau_other:500e-12 ~sep
      in
      check_bits (Printf.sprintf "%s %s sep %g" name (edge_name edge) sep) obs
        delay trans)
    dual_pins

let () =
  Alcotest.run "measure"
    [
      ( "conventions",
        [
          Alcotest.test_case "input thresholds" `Quick test_input_threshold;
          Alcotest.test_case "ramp positioning" `Quick test_ramp_positioning;
          Alcotest.test_case "ramp swing" `Quick test_ramp_full_swing;
          Alcotest.test_case "separation" `Quick test_separation;
          Alcotest.test_case "opposite" `Quick test_opposite;
        ] );
      ( "single input",
        [
          Alcotest.test_case "positive + monotone" `Quick
            test_single_input_delay_positive_and_monotone;
          Alcotest.test_case "stack position" `Quick
            test_stack_position_affects_delay;
          Alcotest.test_case "load dependence" `Quick test_load_slows_gate;
        ] );
      ( "proximity phenomenology",
        [
          Alcotest.test_case "large separation = single" `Quick
            test_multi_input_matches_single_at_large_separation;
          Alcotest.test_case "falling pair speeds up" `Quick
            test_proximity_speeds_up_falling_pair;
          Alcotest.test_case "rising pair slows down" `Quick
            test_proximity_slows_down_rising_pair;
          Alcotest.test_case "validation" `Quick test_multi_input_validation;
        ] );
      ( "golden kernel",
        [
          Alcotest.test_case "single-input bits" `Quick test_single_input_bits;
          Alcotest.test_case "dual oracle bits" `Quick test_dual_oracle_bits;
        ] );
    ]

(* The benchmark's measuring helpers: the model wrapper must not change
   a single result bit and must count exactly under a parallel pool, and
   the percentile / coverage / histogram helpers must give the known
   answers on hand-made arrays. *)

module Tech = Proxim_gates.Tech
module Design = Proxim_sta.Design
module Sta = Proxim_sta.Sta
module Synthgen = Proxim_sta.Synthgen
module Timing = Proxim_timing.Timing
module Pool = Proxim_util.Pool
module Vtc = Proxim_vtc.Vtc
module Stats = Perfbench.Stats
module Timed_models = Perfbench.Timed_models
module Script = Perfbench.Script

(* --- model wrapper ------------------------------------------------------ *)

let design =
  lazy (snd (Synthgen.generate ~seed:3 ~depth:4 ~tech:Tech.generic_5v ~cells:600 ()))

let analyze ?pool wrap =
  let design = Lazy.force design in
  let thresholds =
    match Design.cells design with
    | c :: _ -> Vtc.thresholds c.Design.gate
    | [] -> Alcotest.fail "empty design"
  in
  let factory = Sta.synthetic_factory () in
  let tm = Timed_models.create () in
  let models =
    if wrap then Timed_models.wrap tm factory.Sta.models else factory.Sta.models
  in
  let pi =
    List.map (fun n -> (n, Script.initial_arrival)) (Design.primary_inputs design)
  in
  let ir = Sta.build_ir ~mode:Sta.Proximity ~models ~thresholds design ~pi in
  ignore (Sta.reanalyze ?pool ir : Timing.stats);
  (Sta.report ir, Timed_models.calls tm)

let bits (r : Sta.report) =
  let a (x : Sta.arrival) =
    (Int64.bits_of_float x.Sta.time, Int64.bits_of_float x.Sta.slew, x.Sta.edge)
  in
  ( List.map (fun (n, x) -> (n, a x)) r.Sta.arrivals,
    Option.map (fun (n, x) -> (n, a x)) r.Sta.critical_po,
    r.Sta.predecessors )

let test_wrapper_transparent () =
  let plain, _ = analyze false and wrapped, calls = analyze true in
  Alcotest.(check bool) "wrapped report is bit-identical" true (bits plain = bits wrapped);
  Alcotest.(check bool) "the wrapper saw the model calls" true (calls > 0)

let test_wrapper_domain_safe () =
  let with_pool domains =
    let pool = Pool.create ~domains in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> analyze ~pool true)
  in
  let r1, c1 = with_pool 1 and r2, c2 = with_pool 2 in
  Alcotest.(check int) "call count at 1 and 2 domains" c1 c2;
  Alcotest.(check bool) "1 and 2 domains agree" true (bits r1 = bits r2)

(* --- percentiles, coverage, histograms --------------------------------- *)

let close = Alcotest.float 1e-12

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median [| 5.; 1.; 3. |]);
  Alcotest.check close "even" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: no samples")
    (fun () -> ignore (Stats.median [||] : float))

let test_percentile () =
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  (match Stats.percentile hundred 0.9 with
   | Some t ->
     Alcotest.check close "p90 of 1..100 is the 90th sample" 90. t.Stats.value;
     Alcotest.(check int) "samples" 100 t.Stats.samples;
     Alcotest.(check int) "beyond" 10 t.Stats.beyond
   | None -> Alcotest.fail "p90 of 100 samples has 10 beyond it");
  (match Stats.percentile hundred 0.5 with
   | Some t -> Alcotest.check close "p50" 50. t.Stats.value
   | None -> Alcotest.fail "p50 of 100 samples");
  let ninety_nine = Array.init 99 float_of_int in
  Alcotest.(check bool) "p90 of 99 samples has only 9 beyond it" true
    (Stats.percentile ninety_nine 0.9 = None);
  Alcotest.(check bool) "p99 needs 1000 samples" true
    (Stats.percentile hundred 0.99 = None);
  Alcotest.(check bool) "empty" true (Stats.percentile [||] 0.5 = None)

let test_coverage () =
  let spans = [ (0., 2.); (1., 3.); (1.5, 1.8); (5., 6.); (9., 12.) ] in
  Alcotest.check close "union with overlap, nesting and clipping" 5.
    (Stats.union_length ~lo:0. ~hi:10. spans);
  Alcotest.check close "coverage" 0.5 (Stats.coverage ~lo:0. ~hi:10. spans);
  Alcotest.check close "empty window" 0. (Stats.coverage ~lo:1. ~hi:1. spans);
  Alcotest.check close "no spans" 0. (Stats.coverage ~lo:0. ~hi:1. [])

let test_hist_quantile () =
  let q counts ~underflow ~overflow p =
    Stats.log_hist_quantile ~log10_lo:(-3.) ~log10_hi:1. ~underflow ~overflow
      ~counts p
  in
  (* four one-decade bins from 1 ms; the 10 ms..100 ms bin holds everything *)
  (match q [| 0; 10; 0; 0 |] ~underflow:0 ~overflow:0 0.5 with
   | Some v -> Alcotest.check (Alcotest.float 1e-12) "mid-bin" (10. ** -1.5) v
   | None -> Alcotest.fail "non-empty histogram");
  (match q [| 0; 0; 0; 0 |] ~underflow:3 ~overflow:1 0.5 with
   | Some v -> Alcotest.check close "underflow reads as the lower edge" 1e-3 v
   | None -> Alcotest.fail "underflow counts");
  (match q [| 1; 0; 0; 0 |] ~underflow:0 ~overflow:3 0.9 with
   | Some v -> Alcotest.check close "overflow reads as the upper edge" 10. v
   | None -> Alcotest.fail "overflow counts");
  Alcotest.(check bool) "empty" true
    (q [| 0; 0; 0; 0 |] ~underflow:0 ~overflow:0 0.5 = None)

let () =
  Alcotest.run "perfbench"
    [
      ( "timed models",
        [
          Alcotest.test_case "transparent" `Quick test_wrapper_transparent;
          Alcotest.test_case "domain-safe counts" `Quick test_wrapper_domain_safe;
        ] );
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "coverage" `Quick test_coverage;
          Alcotest.test_case "histogram quantile" `Quick test_hist_quantile;
        ] );
    ]

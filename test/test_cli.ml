(* The malformed-event matrix at the CLI boundary: every subcommand
   that accepts EDGE:TAU:T event specs (--event, --pi, --pi-all, --eco)
   routes them through one shared parser, so a malformed spec must
   produce the identical diagnostic and exit code 2 on every
   subcommand — no more per-command drift between "bad numbers in
   event", "... in pi event" and "... in pi-all event", or between
   exit 1 and exit 2. *)

let cli =
  match
    List.find_opt Sys.file_exists
      [ "../bin/proxim_cli.exe"; "_build/default/bin/proxim_cli.exe" ]
  with
  | Some p -> p
  | None -> "proxim"

(* cells only ever combine nets of the same level, so uniform primary
   input edges never produce mixed edges at any cell (the gates invert) *)
let netlist =
  {|design cli_demo
input a b c d
output y
thresholds 1.263 3.737 5.0
cell u1 nand2 a b -> n1
cell u2 nand2 c d -> n2
cell u3 nand2 n1 n2 -> y
end
|}

let with_netlist f =
  let file = Filename.temp_file "proxim_cli" ".ntl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc netlist);
      f (Filename.quote file))

(* run a command line, returning (exit code, stdout, trimmed stderr) *)
let run fmt =
  Printf.ksprintf
    (fun args ->
      let out = Filename.temp_file "proxim_cli" ".out" in
      let err = Filename.temp_file "proxim_cli" ".err" in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun f -> try Sys.remove f with Sys_error _ -> ())
            [ out; err ])
        (fun () ->
          let code =
            Sys.command
              (Printf.sprintf "%s >%s 2>%s" args (Filename.quote out)
                 (Filename.quote err))
          in
          let read f = In_channel.with_open_text f In_channel.input_all in
          (code, read out, String.trim (read err))))
    fmt

(* run a command line, returning (exit code, stderr) *)
let run_err fmt =
  Printf.ksprintf
    (fun args ->
      let code, _, err = run "%s" args in
      (code, err))
    fmt

(* every subcommand × way of smuggling in the same broken event spec *)
let matrix file =
  [
    ("proximity EVENT", Printf.sprintf "proximity nand2 a:%s");
    ("sta --pi", Printf.sprintf "sta %s --models synthetic --pi a:%s" file);
    ( "sta --eco",
      Printf.sprintf
        "sta %s --models synthetic --pi a:fall:400:0 --eco pi:a:%s" file );
    ("verify --pi", Printf.sprintf "verify %s --pi a:%s" file);
    ("hazards --pi", Printf.sprintf "hazards %s --pi a:%s" file);
    ("sense --pi", Printf.sprintf "sense %s --pi a:%s" file);
    ("profile --pi", Printf.sprintf "profile %s --pi a:%s" file);
  ]

let check_uniform ~ctx ~spec ~expect_msg file =
  let results =
    List.map
      (fun (name, cmd) ->
        let code, err = run_err "%s %s" cli (cmd spec) in
        (name, code, err))
      (matrix file)
  in
  List.iter
    (fun (name, code, err) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s exits 2" ctx name)
        2 code;
      Alcotest.(check string)
        (Printf.sprintf "%s: %s message" ctx name)
        expect_msg err)
    results

let test_bad_numbers_uniform () =
  with_netlist (fun file ->
      check_uniform ~ctx:"bad tau" ~spec:"fall:abc:0"
        ~expect_msg:"bad numbers in event a:fall:abc:0" file;
      check_uniform ~ctx:"bad time" ~spec:"fall:400:xyz"
        ~expect_msg:"bad numbers in event a:fall:400:xyz" file)

let test_bad_edge_uniform () =
  with_netlist
    (check_uniform ~ctx:"bad edge" ~spec:"sideways:400:0"
       ~expect_msg:"unknown edge sideways (rise|fall)")

(* shape errors keep their per-spec-kind wording (each names its own
   expected grammar) but still exit 2 everywhere *)
let test_wrong_shape_exits_2 () =
  with_netlist (fun file ->
      List.iter
        (fun (name, cmd) ->
          let code, err = run_err "%s %s" cli (cmd "fall:400") in
          Alcotest.(check int)
            (Printf.sprintf "shape: %s exits 2" name)
            2 code;
          Alcotest.(check bool)
            (Printf.sprintf "shape: %s says bad ...: %s" name err)
            true
            (String.length err > 0))
        (matrix file);
      (* --pi-all has its own 3-field shape; a 4-field spec is malformed *)
      let code, _ = run_err "%s sta %s --models synthetic --pi-all a:fall:400:0" cli file in
      Alcotest.(check int) "sta --pi-all shape exits 2" 2 code;
      let code, err = run_err "%s sta %s --models synthetic --pi-all fall:nan:oops" cli file in
      Alcotest.(check int) "sta --pi-all bad numbers exits 2" 2 code;
      Alcotest.(check string) "sta --pi-all same message"
        "bad numbers in event fall:nan:oops" err)

let test_missing_events_exit_2 () =
  with_netlist (fun file ->
      let code, _ = run_err "%s sta %s --models synthetic" cli file in
      Alcotest.(check int) "sta with no events" 2 code;
      let code, _ = run_err "%s proximity nand2" cli in
      Alcotest.(check int) "proximity with no events" 2 code;
      let code, _ = run_err "%s profile %s" cli file in
      Alcotest.(check int) "profile with no events" 2 code)

(* the well-formed path still works end to end after the refactor *)
let test_valid_events_accepted () =
  with_netlist (fun file ->
      let code, err =
        run_err
          "%s sta %s --models synthetic --pi a:fall:400:0 --pi b:fall:300:50"
          cli file
      in
      Alcotest.(check string) "no stderr" "" err;
      Alcotest.(check int) "sta accepts valid events" 0 code;
      let code, _ =
        run_err
          "%s sta %s --models synthetic --pi-all fall:400:0 --eco \
           pi:a:fall:350:20"
          cli file
      in
      Alcotest.(check int) "pi-all + eco accepted" 0 code)

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let carry_tree =
  Option.value ~default:"examples/carry_tree.ntl"
    (List.find_opt Sys.file_exists [ "../examples/carry_tree.ntl" ])

(* `sta` runs no prune-mask prepass: the default prints exactly what the
   deprecated --no-prune and --sense print, with no verification,
   hazard or pruning narration, and those flags only add a notice on
   stderr *)
let test_sta_default_runs_no_masks () =
  let sta =
    Printf.sprintf
      "%s sta %s --models synthetic --pi a:fall:500:0 --pi b:fall:450:400 \
       --pi c:fall:300:900 --paths 2 --required 2000 --eco pi:a:fall:400:50 \
       --verify-eco"
      cli carry_tree
  in
  let code, out, err = run "%s" sta in
  Alcotest.(check (pair int string)) "default sta" (0, "") (code, err);
  List.iter
    (fun narration ->
      Alcotest.(check bool)
        (Printf.sprintf "no %S line" narration)
        false
        (List.exists
           (String.starts_with ~prefix:narration)
           (String.split_on_char '\n' out)))
    [ "static verification"; "hazard analysis"; "proximity pruning";
      "sensitization" ];
  List.iter
    (fun flag ->
      let code', out', err' = run "%s %s" sta flag in
      Alcotest.(check int) (flag ^ " exits 0") 0 code';
      Alcotest.(check string) (flag ^ ": same stdout") out out';
      Alcotest.(check bool)
        (Printf.sprintf "%s: deprecation notice on stderr (%s)" flag err')
        true
        (contains ~sub:flag err' && contains ~sub:"deprecated" err'))
    [ "--no-prune"; "--sense" ]

(* every subcommand that reads a netlist takes either encoding: profile
   runs on a PXNB file made by convert, and the analyses print the same
   bytes for both encodings of one design *)
let test_binary_netlists () =
  let ntl = carry_tree in
  let pxb = Filename.temp_file "proxim_cli" ".pxb" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove pxb with Sys_error _ -> ())
    (fun () ->
      let pxb = Filename.quote pxb in
      let code, _, err = run "%s convert %s %s" cli ntl pxb in
      Alcotest.(check (pair int string)) "convert to pxb" (0, "") (code, err);
      let code, out, err =
        run "%s profile %s --models synthetic --pi a:fall:300:0" cli pxb
      in
      Alcotest.(check (pair int string)) "profile on pxb" (0, "") (code, err);
      Alcotest.(check bool) "profile prints the phase table" true
        (List.exists
           (String.starts_with ~prefix:"phase coverage:")
           (String.split_on_char '\n' out));
      let pi = "--pi a:fall:500:0 --pi b:fall:450:400 --pi c:fall:300:900" in
      List.iter
        (fun sub ->
          let code_t, out_t, _ = run "%s %s %s %s" cli sub ntl pi in
          let code_b, out_b, _ = run "%s %s %s %s" cli sub pxb pi in
          Alcotest.(check int) (sub ^ ": same exit code") code_t code_b;
          Alcotest.(check string) (sub ^ ": same stdout") out_t out_b)
        [ "verify"; "hazards"; "sense"; "verify --format json";
          "hazards --format json"; "sense --format json" ])

(* profile drives a design with --pi-all through sta's stimulus parser:
   on a generated design both name the same critical output, and a
   malformed spec gets sta's message and exit code *)
let test_profile_pi_all () =
  let pxb = Filename.temp_file "proxim_cli" ".pxb" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove pxb with Sys_error _ -> ())
    (fun () ->
      let pxb = Filename.quote pxb in
      let code, _, err = run "%s gen -n 60 --seed 2 -o %s" cli pxb in
      Alcotest.(check (pair int string)) "gen" (0, "") (code, err);
      let lines prefix out =
        List.filter (String.starts_with ~prefix) (String.split_on_char '\n' out)
      in
      let code, out_p, err =
        run "%s profile %s --models synthetic --pi-all fall:300:0" cli pxb
      in
      Alcotest.(check (pair int string)) "profile --pi-all" (0, "") (code, err);
      Alcotest.(check int) "phase coverage line" 1
        (List.length (lines "phase coverage:" out_p));
      let _, out_s, _ =
        run "%s sta %s --models synthetic --pi-all fall:300:0" cli pxb
      in
      Alcotest.(check int) "sta names one critical output" 1
        (List.length (lines "critical output:" out_s));
      Alcotest.(check (list string)) "same critical output as sta"
        (lines "critical output:" out_s)
        (lines "critical output:" out_p);
      let code, err =
        run_err "%s profile %s --models synthetic --pi-all fall:nan:oops" cli
          pxb
      in
      Alcotest.(check (pair int string)) "malformed --pi-all"
        (2, "bad numbers in event fall:nan:oops") (code, err))

let () =
  Alcotest.run "cli"
    [
      ( "malformed-events",
        [
          Alcotest.test_case "bad numbers: one message, exit 2" `Quick
            test_bad_numbers_uniform;
          Alcotest.test_case "bad edge: one message, exit 2" `Quick
            test_bad_edge_uniform;
          Alcotest.test_case "wrong shape exits 2" `Quick
            test_wrong_shape_exits_2;
          Alcotest.test_case "missing events exit 2" `Quick
            test_missing_events_exit_2;
        ] );
      ( "well-formed",
        [
          Alcotest.test_case "valid events accepted" `Quick
            test_valid_events_accepted;
          Alcotest.test_case "text and binary netlists" `Quick
            test_binary_netlists;
          Alcotest.test_case "profile --pi-all" `Quick test_profile_pi_all;
          Alcotest.test_case "sta runs no prune masks" `Quick
            test_sta_default_runs_no_masks;
        ] );
    ]

(* Tests for the structural netlist text format. *)

module Tech = Proxim_gates.Tech
module Gate = Proxim_gates.Gate
module Design = Proxim_sta.Design
module Graph = Proxim_timing.Graph
module Netlist_text = Proxim_sta.Netlist_text
module Netlist_file = Proxim_sta.Netlist_file
module Vtc = Proxim_vtc.Vtc

let tech = Tech.generic_5v

let sample =
  {|
# carry tree
design carry_tree
input a b c
output carry
cell u1 nand2 a b -> n1
cell u2 nand2 a c -> n2
cell u3 nand2 b c -> n3
cell u5 nand3 n1 n2 n3 -> carry
end
|}

let test_parse_sample () =
  match Netlist_text.parse tech sample with
  | Error m -> Alcotest.fail m
  | Ok (name, design) ->
    Alcotest.(check string) "name" "carry_tree" name;
    Alcotest.(check int) "cells" 4 (List.length (Design.cells design));
    Alcotest.(check (list string)) "inputs" [ "a"; "b"; "c" ]
      (Design.primary_inputs design);
    Alcotest.(check (list string)) "outputs" [ "carry" ]
      (Design.primary_outputs design);
    let g = Design.graph design in
    (match Graph.driver g ~net:(Option.get (Graph.net_id g "carry")) with
     | Some id ->
       let c = Graph.payload g id in
       Alcotest.(check string) "driver" "u5" c.Design.name;
       Alcotest.(check int) "fan-in" 3 c.Design.gate.Gate.fan_in
     | None -> Alcotest.fail "no driver")

let test_roundtrip () =
  match Netlist_text.parse tech sample with
  | Error m -> Alcotest.fail m
  | Ok (name, design) -> (
    let text = Netlist_text.to_string ~name design in
    match Netlist_text.parse tech text with
    | Error m -> Alcotest.fail ("reparse: " ^ m)
    | Ok (name', design') ->
      Alcotest.(check string) "name" name name';
      Alcotest.(check int) "cells" (List.length (Design.cells design))
        (List.length (Design.cells design'));
      Alcotest.(check (list string)) "inputs" (Design.primary_inputs design)
        (Design.primary_inputs design'))

let expect_error text fragment =
  match Netlist_text.parse tech text with
  | Ok _ -> Alcotest.failf "expected parse error mentioning %S" fragment
  | Error m ->
    let contains hay needle =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "error %S mentions %S" m fragment)
      true (contains m fragment)

let test_error_messages () =
  expect_error "cell u1 nand2 a b -> y\nend" "design";
  expect_error "design d\ncell u1 frob a -> y\nend" "unknown gate";
  expect_error "design d\ncell u1 nand2 a -> y\nend" "wants 2 inputs";
  expect_error "design d\ncell u1 nand2 a b y\nend" "expected 'cell";
  expect_error "design d\nfrobnicate\nend" "unrecognized";
  expect_error "design d\nend\ninput a" "after 'end'";
  expect_error "design d\ndesign e\nend" "duplicate";
  (* structural validation comes through Design.create *)
  expect_error
    "design d\ninput a\noutput y\ncell u1 inv a -> y\ncell u2 inv a -> y\nend"
    "driven twice";
  expect_error
    "design d\ninput a\noutput y\ncell u1 inv ghost -> y\nend"
    "undriven"

let test_line_numbers () =
  match Netlist_text.parse tech "design d\n\ncell u1 frob a -> y\nend" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error m ->
    Alcotest.(check bool) "line 3 reported" true
      (String.length m >= 7 && String.sub m 0 7 = "line 3:")

let test_column_numbers () =
  (* the unknown gate name starts at column 9 of line 3 *)
  (match Netlist_text.parse tech "design d\n\ncell u1 frob a -> y\nend" with
   | Ok _ -> Alcotest.fail "expected error"
   | Error m ->
     Alcotest.(check string) "gate-name column" "line 3:9:"
       (String.sub m 0 9));
  (* an unrecognized directive is located at its own first column *)
  (match Netlist_text.parse tech "design d\n   frobnicate\nend" with
   | Ok _ -> Alcotest.fail "expected error"
   | Error m ->
     Alcotest.(check string) "directive column" "line 2:4:" (String.sub m 0 9));
  (* raw errors carry the same positions, structured *)
  let raw = Netlist_text.parse_raw tech "design d\nthresholds 1.0 oops 5.0\nend" in
  match raw.Netlist_text.raw_errors with
  | [ e ] ->
    Alcotest.(check int) "err_line" 2 e.Netlist_text.err_line;
    Alcotest.(check int) "err_col" 16 e.Netlist_text.err_col
  | es -> Alcotest.failf "expected 1 raw error, got %d" (List.length es)

let test_crlf () =
  (* a CRLF-encoded file parses identically to its LF twin *)
  let lf = "design d\ninput a\noutput y\ncell u1 inv a -> y\nend\n" in
  let crlf =
    String.concat "\r\n" (String.split_on_char '\n' lf)
  in
  match (Netlist_text.parse tech lf, Netlist_text.parse tech crlf) with
  | Ok (n1, d1), Ok (n2, d2) ->
    Alcotest.(check string) "name" n1 n2;
    Alcotest.(check int) "cells" (List.length (Design.cells d1))
      (List.length (Design.cells d2));
    Alcotest.(check (list string)) "inputs" (Design.primary_inputs d1)
      (Design.primary_inputs d2)
  | Error m, _ | _, Error m -> Alcotest.fail m

let test_comments_and_whitespace () =
  let text = "  design   d  # trailing\n# full line\n\tinput a\n output y\ncell u1 inv a -> y\nend" in
  match Netlist_text.parse tech text with
  | Error m -> Alcotest.fail m
  | Ok (name, design) ->
    Alcotest.(check string) "name" "d" name;
    Alcotest.(check int) "one cell" 1 (List.length (Design.cells design))

(* a thresholds directive written by to_string comes back bit-exact from
   of_text; the threshold policy prefers the file's set, then the first
   cell's gate, then the inverter *)
let test_thresholds () =
  match Netlist_text.parse tech sample with
  | Error m -> Alcotest.fail m
  | Ok (name, design) ->
    let th = { Vtc.vil = 0.1 +. 1.2; vih = 3.7 /. 0.9; vdd = 5. } in
    (match
       Netlist_file.of_text tech
         (Netlist_text.to_string ~thresholds:th ~name design)
     with
     | Ok (_, _, Some th') ->
       Alcotest.(check bool) "directive round-trips bit-exact" true (th' = th)
     | Ok (_, _, None) -> Alcotest.fail "directive lost"
     | Error m -> Alcotest.fail m);
    let policy d file_th = Netlist_file.thresholds tech d file_th in
    Alcotest.(check bool) "file's set wins" true (policy design (Some th) = th);
    Alcotest.(check bool) "else the first cell's gate" true
      (policy design None
      = Vtc.thresholds (List.hd (Design.cells design)).Design.gate);
    let empty =
      Design.create ~cells:[] ~primary_inputs:[ "a" ] ~primary_outputs:[]
    in
    Alcotest.(check bool) "else the inverter" true
      (policy empty None = Vtc.thresholds (Gate.inverter tech))

let () =
  Alcotest.run "netlist_text"
    [
      ( "parse",
        [
          Alcotest.test_case "sample" `Quick test_parse_sample;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "errors" `Quick test_error_messages;
          Alcotest.test_case "line numbers" `Quick test_line_numbers;
          Alcotest.test_case "column numbers" `Quick test_column_numbers;
          Alcotest.test_case "crlf" `Quick test_crlf;
          Alcotest.test_case "comments" `Quick test_comments_and_whitespace;
          Alcotest.test_case "thresholds" `Quick test_thresholds;
        ] );
    ]

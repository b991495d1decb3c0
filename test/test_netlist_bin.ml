(* Corrupt-input regression tests for the binary netlist decoder: the
   63-bit varint overflow (a 9-byte varint whose final byte sets the
   sign bit used to come back negative and sail past every length
   guard), negative/oversized lengths, bounded-chunk string reads,
   truncation at every byte boundary of a valid file, trailing bytes,
   and the version-2 id checks.  Every vector must produce [Error _] —
   never an exception, never [Ok]. *)

module Tech = Proxim_gates.Tech
module Design = Proxim_sta.Design
module Synthgen = Proxim_sta.Synthgen
module Netlist_text = Proxim_sta.Netlist_text
module Netlist_bin = Proxim_sta.Netlist_bin
module Sta = Proxim_sta.Sta
module Graph = Proxim_timing.Graph
module Gate = Proxim_gates.Gate

let tech = Tech.generic_5v

let temp_bin f =
  let path = Filename.temp_file "proxim_nlbin" ".pxnb" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Decode [bytes] as a binary netlist; the result is always a [result].
   Any escaping exception is the exact failure mode these tests exist
   to prevent, so it fails the test with the exception's name. *)
let read_bytes bytes =
  temp_bin (fun path ->
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      match Netlist_bin.read_file tech path with
      | r -> r
      | exception e ->
        Alcotest.failf "decoder raised %s" (Printexc.to_string e))

let expect_error ~ctx ~mentions bytes =
  match read_bytes bytes with
  | Ok _ -> Alcotest.failf "%s: accepted corrupt input" ctx
  | Error m ->
    if not (contains m mentions) then
      Alcotest.failf "%s: error %S does not mention %S" ctx m mentions

(* A header up to the point where the design-name string begins: the
   first varint the decoder reads.  Corrupt length vectors splice in
   right here. *)
let header = "PXNB\x01"

let bytes l = String.concat "" (List.map (String.make 1) (List.map Char.chr l))

(* Hand encoders, written from the format description in the interface
   rather than by Netlist_bin.write_channel. *)
let encode f =
  let b = Buffer.create 1024 in
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
  f (Buffer.add_string b) varint str;
  Buffer.contents b

let index_of x l = Option.get (List.find_index (String.equal x) l)

(* the version-1 file of a design: every pin a net-name string *)
let v1_of ~name design =
  encode (fun raw varint str ->
      let list f l =
        varint (List.length l);
        List.iter f l
      in
      let cells = Design.cells design in
      let gates =
        List.sort_uniq compare (List.map (fun c -> c.Design.gate.Gate.name) cells)
      in
      raw "PXNB\x01";
      str name;
      raw "\x00";
      list str gates;
      list str (Design.primary_inputs design);
      list str (Design.primary_outputs design);
      list
        (fun c ->
          varint (index_of c.Design.gate.Gate.name gates);
          str c.Design.name;
          str c.Design.output_net;
          list str (Array.to_list c.Design.input_nets))
        cells;
      raw "\xED")

(* a version-2 file from its parts, valid or not: [nets] is the net
   table, [cells] lists (gate index, name, output id, input ids) *)
let v2 ?(gates = [ "inv" ]) ~nets ~pis ~pos cells =
  encode (fun raw varint str ->
      let list f l =
        varint (List.length l);
        List.iter f l
      in
      raw "PXNB\x02";
      str "v";
      raw "\x00";
      list str gates;
      list str nets;
      list varint pis;
      list varint pos;
      list
        (fun (gi, name, out, ins) ->
          varint gi;
          str name;
          varint out;
          list varint ins)
        cells;
      raw "\xED")

let v2_of ~name design =
  temp_bin (fun path ->
      Netlist_bin.write_file ~name design path;
      In_channel.with_open_bin path In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* varint overflow                                                     *)

let test_varint_sign_bit () =
  (* 8 continuation bytes then a final byte with bit 0x40: that payload
     bit lands on bit 62 — OCaml's sign bit.  The unpatched decoder
     returned a negative length here. *)
  let vector = bytes [0x80; 0x80; 0x80; 0x80; 0x80; 0x80; 0x80; 0x80; 0x40] in
  expect_error ~ctx:"sign-bit varint" ~mentions:"varint overflows"
    (header ^ vector);
  (* all-ones: same overflow, detected on the ninth byte *)
  let ones = String.make 9 '\xff' in
  expect_error ~ctx:"all-ones varint" ~mentions:"varint overflows"
    (header ^ ones)

let test_varint_too_long () =
  (* nine continuation bytes that never overflow bit 62 but keep the
     continuation bit set past the last legal position *)
  let vector = String.make 9 '\x80' in
  expect_error ~ctx:"overlong varint" ~mentions:"varint too long"
    (header ^ vector)

let test_varint_truncated () =
  expect_error ~ctx:"varint cut mid-stream" ~mentions:"truncated varint"
    (header ^ bytes [0x80; 0x80])

(* ------------------------------------------------------------------ *)
(* length guards                                                       *)

let test_string_length_over_max () =
  (* 0x1000_0000 — one past the 256 MB - 1 cap *)
  let vector = bytes [0x80; 0x80; 0x80; 0x80; 0x01] in
  expect_error ~ctx:"string length over max" ~mentions:"out of range"
    (header ^ vector)

let test_huge_claimed_string () =
  (* a legal-looking length claim of 256 MB - 1 with no bytes behind
     it: the chunked reader must fail at end-of-file without first
     allocating the claimed size *)
  let vector = bytes [0xff; 0xff; 0xff; 0x7f] in
  let before = Gc.quick_stat () in
  expect_error ~ctx:"huge claimed string" ~mentions:"truncated string"
    (header ^ vector);
  let after = Gc.quick_stat () in
  let words = after.Gc.major_words -. before.Gc.major_words in
  (* one 64 KB chunk is fine; a quarter-gigabyte buffer is not *)
  if words > 4e6 then
    Alcotest.failf "decoder allocated %.0f major words for a phantom string"
      words

let test_count_guards () =
  (* empty design name, no thresholds, then a gate-table size past the
     0xffff cap *)
  let prefix = header ^ bytes [0x00; 0x00] in
  expect_error ~ctx:"gate table size" ~mentions:"gate table size"
    (prefix ^ bytes [0x80; 0x80; 0x04]);
  (* gate index beyond the (empty) gate table *)
  let no_gates_no_nets = prefix ^ bytes [0x00; 0x00; 0x00] in
  expect_error ~ctx:"gate index" ~mentions:"gate index"
    (no_gates_no_nets ^ bytes [0x01; 0x05])

(* ------------------------------------------------------------------ *)
(* truncation at every byte boundary                                   *)

let truncations full =
  for cut = 0 to String.length full - 1 do
    match read_bytes (String.sub full 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted file truncated at byte %d" cut
  done

let test_truncation_everywhere () =
  let name, design = Synthgen.generate ~seed:7 ~depth:3 ~tech ~cells:24 () in
  let th = { Proxim_vtc.Vtc.vil = 1.9; vih = 3.1; vdd = 5. } in
  let full =
    temp_bin (fun path ->
        Netlist_bin.write_file ~thresholds:th ~name design path;
        In_channel.with_open_bin path In_channel.input_all)
  in
  Alcotest.(check char) "writes version 2" '\x02' full.[4];
  (match read_bytes full with
   | Ok (name', design', Some _) ->
     Alcotest.(check string) "round-trip name" name name';
     Alcotest.(check string) "round-trip structure"
       (Netlist_text.to_string ~name design)
       (Netlist_text.to_string ~name design')
   | Ok (_, _, None) -> Alcotest.fail "thresholds lost"
   | Error m -> Alcotest.fail m);
  (* every proper prefix — cutting inside the magic, the version byte,
     a varint, a string body, a float, the net table, the end marker —
     must be a typed decode error *)
  truncations full;
  (* and of the version-1 file of the same design *)
  truncations (v1_of ~name design)

(* ------------------------------------------------------------------ *)
(* version 2: ids                                                      *)

let test_v2_ids () =
  let ok = v2 ~nets:[ "a"; "y" ] ~pis:[ 0 ] ~pos:[ 1 ] [ (0, "u1", 1, [ 0 ]) ] in
  (match read_bytes ok with
   | Ok (_, d, _) ->
     Alcotest.(check (list string)) "outputs" [ "y" ] (Design.primary_outputs d)
   | Error m -> Alcotest.failf "valid v2 vector rejected: %s" m);
  expect_error ~ctx:"non-canonical id" ~mentions:"canonical order"
    (v2 ~nets:[ "y"; "a" ] ~pis:[ 1 ] ~pos:[ 0 ] [ (0, "u1", 0, [ 1 ]) ]);
  expect_error ~ctx:"non-canonical output" ~mentions:"canonical order"
    (v2 ~nets:[ "a"; "x"; "y" ] ~pis:[ 0 ] ~pos:[ 2 ]
       [ (0, "u1", 2, [ 0 ]); (0, "u2", 1, [ 0 ]) ]);
  expect_error ~ctx:"unused net id" ~mentions:"never used"
    (v2 ~nets:[ "a"; "y"; "z" ] ~pis:[ 0 ] ~pos:[ 1 ] [ (0, "u1", 1, [ 0 ]) ]);
  expect_error ~ctx:"duplicate net name" ~mentions:"duplicate net name a"
    (v2 ~nets:[ "a"; "a" ] ~pis:[ 0 ] ~pos:[ 1 ] [ (0, "u1", 1, [ 0 ]) ]);
  expect_error ~ctx:"duplicate cell name"
    ~mentions:"Design.create: duplicate cell u1"
    (v2 ~nets:[ "a"; "x"; "y" ] ~pis:[ 0 ] ~pos:[ 2 ]
       [ (0, "u1", 2, [ 1 ]); (0, "u1", 1, [ 0 ]) ]);
  expect_error ~ctx:"input id past the table" ~mentions:"net id 2 out of range"
    (v2 ~nets:[ "a"; "y" ] ~pis:[ 0 ] ~pos:[ 1 ] [ (0, "u1", 1, [ 2 ]) ]);
  expect_error ~ctx:"output id past the table" ~mentions:"out of range"
    (v2 ~nets:[ "a"; "y" ] ~pis:[ 0 ] ~pos:[ 1 ] [ (0, "u1", 7, [ 0 ]) ]);
  expect_error ~ctx:"output list id past the table" ~mentions:"out of range"
    (v2 ~nets:[ "a"; "y" ] ~pis:[ 0 ] ~pos:[ 9 ] [ (0, "u1", 1, [ 0 ]) ]);
  expect_error ~ctx:"arity" ~mentions:"Design.create: arity mismatch on u1"
    (v2 ~gates:[ "nand2" ] ~nets:[ "a"; "y" ] ~pis:[ 0 ] ~pos:[ 1 ]
       [ (0, "u1", 1, [ 0 ]) ]);
  expect_error ~ctx:"gate index" ~mentions:"gate index"
    (v2 ~nets:[ "a"; "y" ] ~pis:[ 0 ] ~pos:[ 1 ] [ (1, "u1", 1, [ 0 ]) ])

(* A ~20-byte file claiming the largest net or cell count the decoder
   accepts must fail at end of input having allocated in proportion to
   the file, not to the claim. *)
let test_v2_phantom_counts () =
  let max_count = [ 0xff; 0xff; 0xff; 0x7f ] in
  let vectors =
    [
      ( "phantom net count",
        "truncated",
        "PXNB\x02" ^ bytes [ 0x00; 0x00; 0x00 ] ^ bytes max_count );
      ( "phantom cell count",
        "truncated",
        "PXNB\x02"
        ^ bytes [ 0x00; 0x00; 0x01; 0x03 ]
        ^ "inv"
        ^ bytes [ 0x01; 0x01; 0x61; 0x00; 0x00 ]
        ^ bytes max_count );
    ]
  in
  List.iter
    (fun (ctx, mentions, vector) ->
      if String.length vector > 24 then Alcotest.failf "%s: not short" ctx;
      let before = Gc.quick_stat () in
      expect_error ~ctx ~mentions vector;
      let after = Gc.quick_stat () in
      let words =
        after.Gc.minor_words +. after.Gc.major_words -. after.Gc.promoted_words
        -. (before.Gc.minor_words +. before.Gc.major_words
           -. before.Gc.promoted_words)
      in
      (* one 64 KB window and change; the claim is 2^28 entries *)
      if words > 1e5 then
        Alcotest.failf "%s: decoder allocated %.0f words" ctx words)
    vectors

(* A version-1 file and the version-2 file written from it load into the
   same ids and print the same report.  At 20k cells the ids take three
   varint bytes and both files span many refills of the 64 KB window. *)
let test_v1_v2_same_design () =
  let name, design = Synthgen.generate ~seed:9 ~tech ~cells:20_000 () in
  let load bytes =
    match read_bytes bytes with
    | Ok (_, d, _) -> d
    | Error m -> Alcotest.fail m
  in
  let d1 = load (v1_of ~name design) in
  let d2 = load (v2_of ~name d1) in
  let g1 = Design.graph d1 and g2 = Design.graph d2 in
  if Graph.net_count g2 <= 1 lsl 14 then Alcotest.fail "ids fit two bytes";
  let nets g = Array.init (Graph.net_count g) (Graph.net_name g) in
  let pins g = Array.init (Graph.cell_count g) (Graph.cell_inputs g) in
  Alcotest.(check (array string)) "net names by id" (nets g1) (nets g2);
  Alcotest.(check (array (array int))) "cell input ids" (pins g1) (pins g2);
  let th = Proxim_sta.Netlist_file.thresholds tech d1 None in
  let report d =
    let { Sta.models; _ } = Sta.synthetic_factory () in
    let pi = List.map (fun n -> (n, { Sta.time = 0.; slew = 2e-10;
                                      edge = Proxim_measure.Measure.Fall }))
        (Design.primary_inputs d) in
    let ir = Sta.build_ir ~models ~thresholds:th d ~pi in
    ignore (Sta.reanalyze ir : Proxim_timing.Timing.stats);
    let r = Sta.report ir in
    let paths =
      match r.Sta.critical_po with
      | Some (po, _) -> Sta.worst_paths ir ~po ~k:5
      | None -> []
    in
    (r, List.map (fun p -> (p.Sta.path_arrival, p.Sta.path_nets)) paths)
  in
  let r1, p1 = report d1 and r2, p2 = report d2 in
  Alcotest.(check bool) "same report" true (Sta.report_equal r1 r2);
  Alcotest.(check (list (pair (float 0.) (list string)))) "same paths" p1 p2

(* garbage replacing the end marker is an error, and so is garbage
   appended after it, in either version *)
let test_end_marker () =
  let name, design = Synthgen.generate ~seed:8 ~depth:3 ~tech ~cells:12 () in
  List.iter
    (fun (version, full) ->
      let ctx what = Printf.sprintf "v%d %s" version what in
      let body = String.sub full 0 (String.length full - 1) in
      expect_error ~ctx:(ctx "bad end marker") ~mentions:"end marker"
        (body ^ bytes [0x00]);
      expect_error ~ctx:(ctx "trailing garbage") ~mentions:"trailing bytes"
        (full ^ "garbage");
      expect_error ~ctx:(ctx "trailing byte") ~mentions:"trailing bytes"
        (full ^ bytes [0xED]))
    [ (1, v1_of ~name design); (2, v2_of ~name design) ]

let () =
  Alcotest.run "netlist_bin"
    [
      ( "varint",
        [
          Alcotest.test_case "sign-bit overflow rejected" `Quick
            test_varint_sign_bit;
          Alcotest.test_case "overlong continuation rejected" `Quick
            test_varint_too_long;
          Alcotest.test_case "truncated varint" `Quick test_varint_truncated;
        ] );
      ( "lengths",
        [
          Alcotest.test_case "string length over max" `Quick
            test_string_length_over_max;
          Alcotest.test_case "huge claimed string stays bounded" `Quick
            test_huge_claimed_string;
          Alcotest.test_case "count guards" `Quick test_count_guards;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "every byte boundary" `Quick
            test_truncation_everywhere;
          Alcotest.test_case "end marker" `Quick test_end_marker;
        ] );
      ( "version 2",
        [
          Alcotest.test_case "id checks" `Quick test_v2_ids;
          Alcotest.test_case "phantom counts stay bounded" `Quick
            test_v2_phantom_counts;
          Alcotest.test_case "v1 and its v2 conversion agree" `Quick
            test_v1_v2_same_design;
        ] );
    ]

module Gate = Proxim_gates.Gate
module Vtc = Proxim_vtc.Vtc
module Graph = Proxim_timing.Graph

let magic = "PXNB"
let version = 2
let end_marker = 0xED

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* --- writing ------------------------------------------------------------ *)

let write_varint oc n =
  if n < 0 then invalid_arg "Netlist_bin: negative varint";
  let rec go n =
    if n < 0x80 then output_byte oc n
    else begin
      output_byte oc (0x80 lor (n land 0x7f));
      go (n lsr 7)
    end
  in
  go n

let write_string oc s =
  write_varint oc (String.length s);
  output_string oc s

let write_f64 oc x =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float x);
  output_bytes oc b

(* --- the refill window ---------------------------------------------------- *)

(* The reader decodes from a fixed window over the channel: unread bytes
   move to its front and the channel tops it up, so the whole file is
   never held at once and a decode step touches no closure. *)
type window = {
  ic : in_channel;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable left : int;  (* bytes still in the channel, or [max_int] if unknown *)
}

let window_size = 65536

let window ic =
  let left =
    try in_channel_length ic - pos_in ic with Sys_error _ -> max_int
  in
  { ic; buf = Bytes.create window_size; pos = 0; len = 0; left }

(* Top the window up; [false] once the channel is exhausted. *)
let refill w =
  if w.pos > 0 then begin
    Bytes.blit w.buf w.pos w.buf 0 (w.len - w.pos);
    w.len <- w.len - w.pos;
    w.pos <- 0
  end;
  let k = input w.ic w.buf w.len (Bytes.length w.buf - w.len) in
  w.len <- w.len + k;
  if w.left <> max_int then w.left <- w.left - k;
  k > 0

(* at least [n <= window_size] bytes buffered, or [false] at end of input *)
let ensure w n =
  while w.len - w.pos < n && refill w do
    ()
  done;
  w.len - w.pos >= n

let byte w ~what =
  if w.pos < w.len || refill w then begin
    let b = Bytes.unsafe_get w.buf w.pos in
    w.pos <- w.pos + 1;
    Char.code b
  end
  else corrupt "truncated %s" what

(* An OCaml int has 63 bits, so a varint may carry at most 62 value bits
   (the sign bit must stay clear): 8 full continuation bytes (7 bits
   each) plus a final byte contributing bits 56..61.  A ninth byte with
   the continuation bit, or a bit-62 payload at shift 56, would wrap the
   accumulator negative — the overflow that once let attacker-controlled
   "lengths" slip past every [n > max] guard as negative ints. *)
let varint_slow w =
  let acc = ref 0 in
  let shift = ref 0 in
  let more = ref true in
  while !more do
    let b = byte w ~what:"varint" in
    if !shift = 56 && b land 0x40 <> 0 then
      corrupt "varint overflows the 63-bit integer range";
    acc := !acc lor ((b land 0x7f) lsl !shift);
    if b land 0x80 = 0 then more := false
    else if !shift >= 56 then corrupt "varint too long"
    else shift := !shift + 7
  done;
  !acc

(* ids, counts and lengths are mostly one to three bytes: decode those
   straight from the window *)
let varint w =
  let p = w.pos in
  if w.len - p < 3 then varint_slow w
  else
    let b0 = Char.code (Bytes.unsafe_get w.buf p) in
    if b0 < 0x80 then begin
      w.pos <- p + 1;
      b0
    end
    else
      let b1 = Char.code (Bytes.unsafe_get w.buf (p + 1)) in
      if b1 < 0x80 then begin
        w.pos <- p + 2;
        (b0 land 0x7f) lor (b1 lsl 7)
      end
      else
        let b2 = Char.code (Bytes.unsafe_get w.buf (p + 2)) in
        if b2 < 0x80 then begin
          w.pos <- p + 3;
          (b0 land 0x7f) lor ((b1 land 0x7f) lsl 7) lor (b2 lsl 14)
        end
        else varint_slow w

(* Every count and length decoded from the wire goes through this guard:
   [varint] never returns a negative value, but the decoders downstream
   must never see one even if the invariant breaks — a negative length
   is [Corrupt], not an untyped [Invalid_argument] escaping a daemon. *)
let count w ~what ~max =
  let n = varint w in
  if n < 0 then corrupt "negative %s %d" what n;
  if n > max then corrupt "%s %d out of range (max %d)" what n max;
  n

(* A net id of a table of [n] nets. *)
let net_id w n =
  let id = varint w in
  if id >= n then corrupt "net id %d out of range (%d nets)" id n;
  id

let max_string_len = 0x0fff_ffff

(* The claimed length is attacker-controlled; the channel's remaining
   bytes are not.  A string longer than the window is read in window-
   sized chunks, so a 4-byte corrupt header claiming a 256 MB string
   over-allocates at most one chunk before end-of-file turns it into
   [Corrupt]. *)
let string w =
  let n = count w ~what:"string length" ~max:max_string_len in
  if n <= window_size then begin
    if not (ensure w n) then corrupt "truncated string";
    let s = Bytes.sub_string w.buf w.pos n in
    w.pos <- w.pos + n;
    s
  end
  else begin
    let b = Buffer.create window_size in
    let todo = ref n in
    while !todo > 0 do
      if w.pos = w.len && not (refill w) then corrupt "truncated string";
      let k = min !todo (w.len - w.pos) in
      Buffer.add_subbytes b w.buf w.pos k;
      w.pos <- w.pos + k;
      todo := !todo - k
    done;
    Buffer.contents b
  end

let f64 w =
  if not (ensure w 8) then corrupt "truncated float";
  let x = Int64.float_of_bits (Bytes.get_int64_le w.buf w.pos) in
  w.pos <- w.pos + 8;
  x

(* Room for [n] claimed records of at least one byte each: as many as
   the input still holds bytes, so a phantom count in a short file
   allocates in proportion to the file, not to the claim.  When the
   channel's length is unknown it is one window's worth, and [grow]
   doubles it as records actually arrive. *)
let room w n =
  let bound =
    if w.left = max_int then window_size else w.left + w.len - w.pos
  in
  if n < bound then n else if bound > 0 then bound else 0

let grow a x =
  let b = Array.make (max 1 (2 * Array.length a)) x in
  Array.blit a 0 b 0 (Array.length a);
  b

let trim a n = if Array.length a = n then a else Array.sub a 0 n

(* --- sniffing --------------------------------------------------------- *)

let string_is_binary s =
  String.length s >= String.length magic
  && String.sub s 0 (String.length magic) = magic

let file_is_binary path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (String.length magic) with
        | exception End_of_file -> false
        | head -> head = magic)

(* --- writer ----------------------------------------------------------- *)

let write_channel ?thresholds ~name design oc =
  output_string oc magic;
  output_byte oc version;
  write_string oc name;
  (match thresholds with
   | None -> output_byte oc 0
   | Some (th : Vtc.thresholds) ->
     output_byte oc 1;
     write_f64 oc th.Vtc.vil;
     write_f64 oc th.Vtc.vih;
     write_f64 oc th.Vtc.vdd);
  let g = Design.graph design in
  let n_cells = Graph.cell_count g in
  (* dense gate-name table in first-appearance order *)
  let gate_names = ref [||] in
  let gate_index = Array.make n_cells 0 in
  for c = 0 to n_cells - 1 do
    let gname = (Graph.payload g c).Design.gate.Gate.name in
    let k = ref 0 in
    while
      !k < Array.length !gate_names && not (String.equal !gate_names.(!k) gname)
    do
      incr k
    done;
    if !k = Array.length !gate_names then
      gate_names := Array.append !gate_names [| gname |];
    gate_index.(c) <- !k
  done;
  write_varint oc (Array.length !gate_names);
  Array.iter (write_string oc) !gate_names;
  (* the canonical numbering: first appearance over primary inputs, cell
     inputs, cell outputs, primary outputs *)
  let canon = Array.make (Graph.net_count g) (-1) in
  let order = Array.make (Graph.net_count g) 0 in
  let n_nets = ref 0 in
  let number net =
    if canon.(net) < 0 then begin
      canon.(net) <- !n_nets;
      order.(!n_nets) <- net;
      incr n_nets
    end
  in
  Array.iter number (Graph.primary_inputs g);
  for c = 0 to n_cells - 1 do
    Array.iter number (Graph.cell_inputs g c)
  done;
  for c = 0 to n_cells - 1 do
    number (Graph.cell_output g c)
  done;
  Array.iter number (Graph.primary_outputs g);
  write_varint oc !n_nets;
  for k = 0 to !n_nets - 1 do
    write_string oc (Graph.net_name g order.(k))
  done;
  let write_ids ids =
    write_varint oc (Array.length ids);
    Array.iter (fun net -> write_varint oc canon.(net)) ids
  in
  write_ids (Graph.primary_inputs g);
  write_ids (Graph.primary_outputs g);
  write_varint oc n_cells;
  for c = 0 to n_cells - 1 do
    write_varint oc gate_index.(c);
    write_string oc (Graph.cell_name g c);
    write_varint oc canon.(Graph.cell_output g c);
    write_ids (Graph.cell_inputs g c)
  done;
  output_byte oc end_marker;
  flush oc

let write_file ?thresholds ~name design path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> write_channel ?thresholds ~name design oc)

(* --- reader ----------------------------------------------------------- *)

let read_gates tech w =
  let n = count w ~what:"gate table size" ~max:0xffff in
  Array.of_list
    (List.init n (fun _ ->
         match Gate.of_name tech (string w) with
         | Ok g -> g
         | Error msg -> corrupt "gate table: %s" msg))

let read_thresholds w =
  match byte w ~what:"thresholds" with
  | 0 -> None
  | 1 ->
    let vil = f64 w in
    let vih = f64 w in
    let vdd = f64 w in
    Some { Vtc.vil; vih; vdd }
  | b -> corrupt "bad thresholds flag %d" b

(* The end marker, and nothing after it. *)
let read_end w =
  if not (ensure w 1) then corrupt "missing end marker";
  let b = byte w ~what:"end marker" in
  if b <> end_marker then corrupt "bad end marker 0x%02x" b;
  if w.pos < w.len || refill w then corrupt "trailing bytes after the end marker"

let read_v1 tech w =
  let gates = read_gates tech w in
  let net_list () =
    let n = count w ~what:"net list length" ~max:max_string_len in
    List.init n (fun _ -> string w)
  in
  let pis = net_list () in
  let pos = net_list () in
  let n_cells = count w ~what:"cell count" ~max:max_string_len in
  (* streamed: one cell record decoded at a time, consed in reverse *)
  let cells = ref [] in
  for _ = 1 to n_cells do
    let gi = varint w in
    if gi >= Array.length gates then corrupt "gate index %d out of table" gi;
    let name = string w in
    let output_net = string w in
    let n_in = count w ~what:"input count" ~max:0xffff in
    let input_nets = Array.init n_in (fun _ -> string w) in
    cells := { Design.name; gate = gates.(gi); input_nets; output_net } :: !cells
  done;
  read_end w;
  Design.create ~cells:(List.rev !cells) ~primary_inputs:pis
    ~primary_outputs:pos

let read_ids w ~what ~nets =
  let n = count w ~what ~max:max_string_len in
  let ids = ref (Array.make (room w n) 0) in
  for i = 0 to n - 1 do
    if i = Array.length !ids then ids := grow !ids 0;
    !ids.(i) <- net_id w nets
  done;
  trim !ids n

(* v2 ids must number the nets by first appearance over primary inputs,
   cell inputs, cell outputs and primary outputs — the numbering
   [Graph.build] gives the same names — and use every net, so a v2 file
   loads into exactly the ids its v1 twin would. *)
let check_canonical net_names ~pis ~cell_inputs ~cell_outputs ~pos =
  let next = ref 0 in
  let see id =
    if id = !next then incr next
    else if id > !next then
      corrupt "net id %d out of canonical order (next new id is %d)" id !next
  in
  Array.iter see pis;
  Array.iter (Array.iter see) cell_inputs;
  Array.iter see cell_outputs;
  Array.iter see pos;
  if !next < Array.length net_names then
    corrupt "net %d (%s) is never used" !next net_names.(!next)

let read_v2 tech w =
  let gates = read_gates tech w in
  let n_nets = count w ~what:"net count" ~max:max_string_len in
  let net_names = ref (Array.make (room w n_nets) "") in
  for i = 0 to n_nets - 1 do
    if i = Array.length !net_names then net_names := grow !net_names "";
    !net_names.(i) <- string w
  done;
  let net_names = trim !net_names n_nets in
  let pis = read_ids w ~what:"primary input count" ~nets:n_nets in
  let pos = read_ids w ~what:"primary output count" ~nets:n_nets in
  let n_cells = count w ~what:"cell count" ~max:max_string_len in
  let room = room w n_cells in
  let cell_gates = ref (Array.make room 0) in
  let cell_names = ref (Array.make room "") in
  let cell_outputs = ref (Array.make room 0) in
  let cell_inputs = ref (Array.make room [||]) in
  for i = 0 to n_cells - 1 do
    if i = Array.length !cell_names then begin
      cell_gates := grow !cell_gates 0;
      cell_names := grow !cell_names "";
      cell_outputs := grow !cell_outputs 0;
      cell_inputs := grow !cell_inputs [||]
    end;
    let gi = varint w in
    if gi >= Array.length gates then corrupt "gate index %d out of table" gi;
    !cell_gates.(i) <- gi;
    !cell_names.(i) <- string w;
    !cell_outputs.(i) <- net_id w n_nets;
    !cell_inputs.(i) <- read_ids w ~what:"input count" ~nets:n_nets
  done;
  read_end w;
  let cell_inputs = trim !cell_inputs n_cells in
  let cell_outputs = trim !cell_outputs n_cells in
  check_canonical net_names ~pis ~cell_inputs ~cell_outputs ~pos;
  Design.of_ids ~net_names ~cell_names:(trim !cell_names n_cells)
    ~gates:(Array.map (Array.get gates) (trim !cell_gates n_cells))
    ~cell_inputs ~cell_outputs ~primary_inputs:pis ~primary_outputs:pos

let read_channel tech ic =
  try
    let w = window ic in
    if not (ensure w (String.length magic)) then
      corrupt "file too short for magic";
    let head = Bytes.sub_string w.buf w.pos (String.length magic) in
    if head <> magic then corrupt "bad magic %S (want %S)" head magic;
    w.pos <- w.pos + String.length magic;
    let v = byte w ~what:"version" in
    if v <> 1 && v <> 2 then corrupt "unsupported format version %d" v;
    let name = string w in
    let thresholds = read_thresholds w in
    let design = if v = 1 then read_v1 tech w else read_v2 tech w in
    Ok (name, design, thresholds)
  with
  | Corrupt msg -> Error ("binary netlist: " ^ msg)
  | Invalid_argument msg -> Error msg

let read_file tech path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> read_channel tech ic)

(** A length-prefixed binary netlist format with streaming I/O.

    The text format ({!Netlist_text}) is the human interface; this is the
    scale interface.  A million-cell design serializes to a few tens of
    megabytes and reads back in a single pass — no line scanner, no
    tokenizing, no intermediate whole-file string.  All integers are
    unsigned LEB128 varints, all strings are varint-length-prefixed
    bytes, floats are IEEE-754 binary64 little-endian.

    Version 2, which {!write_channel} writes, stores every net name once
    and every pin as a net id:

    {v
    "PXNB"  magic
    u8      format version (2)
    string  design name
    u8      thresholds flag; if 1: f64 vil, f64 vih, f64 vdd
    varint  gate-table size, then that many gate-name strings
    varint  net count, then that many net-name strings (net i is the i-th)
    varint  primary-input count, then that many net ids
    varint  primary-output count, then that many net ids
    varint  cell count, then per cell:
              varint gate-table index
              string cell name
              varint output net id
              varint input count, then that many input net ids
    u8      0xED end marker, the last byte of the file
    v}

    {b Canonical numbering.}  Net ids number the nets by first
    appearance over the primary inputs, then every cell's inputs (cells
    in order, pins in order), then every cell's output, then the primary
    outputs — the numbering {!Proxim_timing.Graph.build} gives the same
    names.  The reader rejects an id that appears before every smaller
    one has, a net that no list or cell uses, and two nets with one name,
    so a version-2 file loads into exactly the ids, and so prints exactly
    the reports, that its version-1 or text twin does.  The writer
    renumbers whatever design it is given into this order.

    Version 1 is read-only.  It spells every pin as a net-name string:

    {v
    "PXNB"  magic
    u8      format version (1)
    string  design name
    u8      thresholds flag; if 1: f64 vil, f64 vih, f64 vdd
    varint  gate-table size, then that many gate-name strings
    varint  primary-input count, then that many net-name strings
    varint  primary-output count, then that many net-name strings
    varint  cell count, then per cell:
              varint gate-table index
              string cell name
              string output net
              varint input count, then that many input-net strings
    u8      0xED end marker, the last byte of the file
    v}

    Gate names go through {!Proxim_gates.Gate.of_name} on read, exactly
    like the text parser, so the formats accept the same gate
    vocabulary.  The writer streams cells straight to the channel; the
    reader decodes through a fixed 64 KB refill window, so peak memory
    is the design itself plus O(1) scratch. *)

val magic : string
(** ["PXNB"]. *)

val version : int
(** Format version written by {!write_channel} (currently 2). *)

val file_is_binary : string -> bool
(** [true] iff the file exists, is readable, and starts with {!magic} —
    the sniff the CLI uses to route a netlist argument to the right
    parser.  Never raises. *)

val string_is_binary : string -> bool
(** [true] iff the in-memory content starts with {!magic}. *)

val write_channel :
  ?thresholds:Proxim_vtc.Vtc.thresholds ->
  name:string ->
  Design.t ->
  out_channel ->
  unit
(** Serialize [design] (with its design [name], and the measurement
    [thresholds] when the source carried them) to [oc].  The channel is
    flushed but not closed. *)

val write_file :
  ?thresholds:Proxim_vtc.Vtc.thresholds ->
  name:string ->
  Design.t ->
  string ->
  unit

val read_channel :
  Proxim_gates.Tech.t ->
  in_channel ->
  (string * Design.t * Proxim_vtc.Vtc.thresholds option, string) result
(** Parse one binary netlist, of either version, from the rest of [ic]:
    anything after the end marker is an [Error].  Structural validation
    runs through {!Design.create} (version 1) or {!Design.of_ids}
    (version 2), so cycles, double drivers and arity mismatches are
    reported with the same messages as the text path.  Truncated input,
    a bad magic, an unsupported version, a corrupt record, an id out of
    range or out of canonical order, an unused net or a repeated net name
    all come back as [Error] — never an exception.  A version-2 design's
    cells share the net table's strings.

    The decoder treats the input as adversarial (the [proxim serve]
    daemon parses client-supplied bytes through it): varints are
    rejected before they can overflow OCaml's 63-bit [int] (9
    continuation bytes, or a final byte setting bit 62, are [Error],
    never a negative length), every decoded count is bounds-checked
    before any allocation sized by it, arrays for a claimed count are
    sized by what the channel can still hold (grown as records arrive
    when its length is unknown), and long strings are read in bounded
    chunks, so a short file claiming 2^28 nets, cells or string bytes
    fails at end-of-file instead of forcing the allocation up front. *)

val read_file :
  Proxim_gates.Tech.t ->
  string ->
  (string * Design.t * Proxim_vtc.Vtc.thresholds option, string) result

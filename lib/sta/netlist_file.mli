(** Loading a netlist whatever its encoding, and the paper's §2
    threshold policy for the loaded design.

    Every front end that reads a netlist (the CLI subcommands, the
    [proxim serve] [load]/[load_text] ops, the bench) goes through this
    module, so the text/binary choice and the threshold fallback are
    each made in one place. *)

type loaded = string * Design.t * Proxim_vtc.Vtc.thresholds option
(** Design name, design, and the thresholds the file declares (a text
    [thresholds] directive or the PXNB thresholds record), if any. *)

val of_text : Proxim_gates.Tech.t -> string -> (loaded, string) result
(** Parse the text format, keeping the [thresholds] directive from the
    same scan.  Errors are {!Netlist_text.parse}'s messages. *)

val load : Proxim_gates.Tech.t -> string -> (loaded, string) result
(** Read the file at [path]: PXNB when it starts with
    {!Netlist_bin.magic}, the text format otherwise.  An unreadable file
    is an [Error] carrying the system message; never raises. *)

val thresholds :
  Proxim_gates.Tech.t ->
  Design.t ->
  Proxim_vtc.Vtc.thresholds option ->
  Proxim_vtc.Vtc.thresholds
(** The threshold set to analyze [design] with: the file's when it
    declares one, else the VTC-chosen set of the first cell's gate, else
    that of the technology's inverter (a design with no cells). *)

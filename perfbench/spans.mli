(** The replay's own span recorder: one span around each public call
    into a layer, kept in memory and written out when the run ends.
    Single-threaded by design — the replays call the layers from one
    thread, and the layers' own parallelism happens inside a span. *)

type span = {
  id : int;
  parent : int option;  (** the enclosing span, [None] at top level *)
  name : string;
  start : float;  (** [Unix.gettimeofday] seconds *)
  stop : float;
}

type t

val create : unit -> t

val with_ : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span named [name], nested under the span
    currently open (if any).  The span is recorded on exceptional exit
    too. *)

val spans : t -> span list
(** Every recorded span, in start order. *)

val durations : t -> string -> float list
(** The durations (s) of every span with this name, in start order. *)

val total : t -> string -> float
(** Sum of {!durations}. *)

val top_level : t -> (float * float) list
(** [(start, stop)] of every top-level span. *)

val to_json : t -> Proxim_lint.Json.t
(** The spans as a JSON list of
    [{"id","parent","name","start_s","dur_s"}] objects, times relative
    to the first span's start. *)

(** Structured telemetry: nestable timed spans, named counters and
    gauges, an in-memory summary tree and a Chrome-trace-format exporter.

    Dependency-free by design (stdlib + one C stub for the monotonic
    clock) so that every layer of the compiler — IR analyses, the domain
    pool, the pipeline, the drivers — can emit telemetry without
    dependency cycles or new opam packages.  The subsystem is {e pull
    based}: instrumentation points record into process-global state and
    cost nothing until a sink ({!Summary}, {!Trace}) asks for the data.

    Telemetry is {b disabled by default}.  Every recording entry point
    first reads one atomic flag and returns — no allocation, no lock, no
    clock read — so instrumented hot paths (predicate queries, pool task
    hand-off) stay within a <1% overhead budget when nothing is
    listening.  Enable with {!set_enabled} (the [--trace] flag of the
    drivers does this) and the same call sites start recording.

    All entry points are safe to call from any domain: spans carry the
    recording domain's id as their track, counters are atomic, and the
    event log is mutex-protected (locked once per span {e exit}, never
    per query). *)

val now_ns : unit -> int64
(** Monotonic timestamp in nanoseconds (arbitrary epoch). *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Enabling for the first time (or after {!reset}) fixes the trace
    epoch: exported timestamps count from that moment. *)

val reset : unit -> unit
(** Drop recorded events and gauges and zero every counter.  Counter
    handles remain valid (they are created once at module
    initialization). *)

(** {2 Counters and gauges} *)

type counter

val counter : string -> counter
(** Intern a named monotonic counter.  Calling twice with the same name
    returns the same counter.  Create counters at module initialization,
    not per event: creation takes a lock, {!incr}/{!add} do not. *)

val incr : counter -> unit
val add : counter -> int -> unit

val counter_value : counter -> int

val counters : unit -> (string * int) list
(** Nonzero counters, sorted by name. *)

val gauge : string -> float -> unit
(** Record a point-in-time measurement (e.g. pool utilization of the
    last batch).  Last write per name wins. *)

val gauges : unit -> (string * float) list

(** {2 Spans} *)

val span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] and records a completed-span event on the
    calling domain's track.  Spans nest: a span entered while another is
    open on the same domain becomes its child in {!Summary.tree}.
    Exceptions propagate; the span still records.  When telemetry is
    disabled this is exactly [f ()]. *)

type event = {
  name : string;
  track : int;  (** id of the domain that ran the span *)
  start_ns : int64;  (** {!now_ns} at entry *)
  dur_ns : int64;
  depth : int;  (** nesting depth on the track at entry, outermost 0 *)
  args : (string * string) list;
}

val events : unit -> event list
(** Recorded spans in start order. *)

(** {2 Sinks} *)

module Summary : sig
  type node = {
    name : string;
    count : int;  (** spans merged into this node *)
    total_ns : int64;
    children : node list;
  }

  val tree : unit -> node list
  (** Spans aggregated by name path: two spans merge iff their names and
      the names of all their ancestors agree.  Tracks are merged (the
      per-domain split is the trace exporter's job); roots and children
      are sorted by total time, descending. *)

  val pp : Format.formatter -> unit -> unit
end

module Json : sig
  (** The repository's one JSON owner: the string escaper every writer
      uses (traces, crash bundles, bench artifacts), the printer the
      bench artifacts and crash bundles are written with, and a small
      but complete reader for everything they wrote. *)

  val escape : string -> string
  (** Escape for a JSON string literal: quote, backslash, and every
      control character below [0x20] (as [\n] or [\u00XX]). *)

  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result
  (** A full parse (objects, arrays, string escapes including [\uXXXX]);
      strict about raw control characters inside strings, which JSON
      forbids.  [Error] names the problem and its byte offset. *)

  val to_string : t -> string
  (** Print a value (no trailing newline).  Integral numbers print as
      integers, other finite ones in the shortest form that parses back
      to the same float, non-finite ones as [null]; strings go through
      {!escape}.  A container whose one-line form exceeds 80 bytes puts
      each member on its own line, indented two spaces per level. *)
end

module Trace : sig
  (** Chrome-trace-format export: a JSON object whose [traceEvents]
      array holds one complete ("ph":"X") event per span — with the
      recording domain as its track ("tid") — plus thread-name metadata
      per track and one counter ("ph":"C") sample per counter and gauge.
      Load the file in [chrome://tracing] or {{:https://ui.perfetto.dev}
      Perfetto}. *)

  val to_string : unit -> string

  val export : path:string -> unit

  type parsed_event = {
    pname : string;
    pph : string;  (** "X", "M" or "C" *)
    ptid : int;
    pts : float;  (** microseconds since the trace epoch *)
    pdur : float;  (** microseconds; 0 for non-span events *)
  }

  val parse : string -> (parsed_event list, string) result
  (** Parse a trace produced by {!to_string} back into its events — a
      full JSON parse (objects, arrays, string escapes), not a line
      scrape, so the round-trip test also proves the export is
      well-formed JSON. *)
end

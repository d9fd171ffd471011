(** Trace-event collection with per-domain buffers: the one event
    stream of a run.  Spans, instants and counters from {!Span}, and
    the decision journal's instants (category ["journal"], see
    {!Journal}), all land here.

    Recording is off by default; {!Span.with_} degenerates to a plain
    call when disabled, so instrumentation left in hot paths costs one
    atomic load.  Each domain appends to its own buffer (created on
    first use through [Domain.DLS]), so {!Dse.Pool} workers trace
    without locks on the record path; buffers are registered in a
    global list the exporter merges after the domains have joined. *)

type phase = Complete | Instant | Counter

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts_ns : int64;  (** start time, monotonic, relative to process start *)
  dur_ns : int64;  (** 0 for instant and counter events *)
  tid : int;  (** recording domain's id *)
  args : (string * Json.t) list;
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val record : event -> unit
(** Unconditionally append to the current domain's buffer (callers
    check {!enabled}, or {!Journal.enabled} for journal instants). *)

val events : unit -> event list
(** Merge every domain's buffer, stably sorted by [ts_ns]: events with
    equal timestamps keep their domain's append order. *)

val events_by_domain : unit -> (int * event list) list
(** Per-buffer view, [(tid, events)] in append order (oldest first),
    for invariant checks.  A complete event is appended when its span
    ends, so only instants are monotonically timestamped per domain. *)

val clear : ?cat:string -> unit -> unit
(** Drop every buffered event, or only those of category [cat]. *)

(** Decision-provenance journal.

    Spans answer "where did the time go"; the journal answers "which
    decisions were made and why": per-candidate engine outcomes
    (hit / built / unfit / bounds-pruned with the violated cutoff),
    solver incumbent improvements, static-bound tightness.  Consumers
    ([reconfigure --explain], the fuzz oracle) aggregate the raw
    stream into reports.

    The journal is a category of the one {!Trace} stream: a journal
    event is a {!Trace.Instant} of category ["journal"] whose [name] is
    the event's kind and whose [args] are its fields, appended to the
    recording domain's trace buffer.  It has its own switch, off by
    default, independent of {!Trace.enabled}: a disabled {!record} is
    one atomic load, and an enabled one records no span. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val record : kind:string -> (string * Json.t) list -> unit
(** Append one journal instant (e.g. kind ["binlp.incumbent"],
    ["engine.hit"]) to the current domain's trace buffer when enabled,
    else no-op.  Callers building expensive field lists should guard
    with {!enabled} to avoid the allocation. *)

val events : unit -> Trace.event list
(** The journal instants of {!Trace.events}, in its order. *)

val clear : unit -> unit
(** Drop the journal instants only; other trace events stay. *)

(** Exporters: Chrome trace-event JSON (load in Perfetto / chrome://tracing)
    and a metrics dump.

    Trace-event objects keep a fixed field order —
    [name, cat, ph, ts, dur, pid, tid, args] for complete ('X') events,
    [name, cat, ph, ts, s, pid, tid, args] for instants,
    [name, cat, ph, ts, pid, tid, args] for counters ('C') — with [ts]/[dur]
    in microseconds on the process-relative monotonic axis, so the format
    is golden-testable byte-for-byte modulo timestamps. *)

val trace_json : unit -> Json.t
(** [{"displayTimeUnit": "ms", "traceEvents": [...]}] over the merged,
    ts-sorted buffers of every domain. *)

val trace_to_string : unit -> string

val write_trace : out_channel -> unit
(** Write {!trace_to_string} to a channel. *)

val metrics_json : unit -> Json.t
(** Snapshot of the metrics registry, keyed by metric name. *)

val write_metrics : out_channel -> unit

val write_profile : out_channel -> unit
(** Write the sampling profiler's folded-stacks table (see
    {!Profile.folded}) — feed to flamegraph.pl or speedscope. *)

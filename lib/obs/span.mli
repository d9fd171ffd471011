(** Structured spans and instant events over {!Trace}.

    [Span.with_ "solve" ~attrs f] times [f] against the monotonic clock
    and records a Chrome "complete" ('X') event when tracing is
    enabled; when {!Profile} sampling is enabled it also maintains the
    per-domain label stack the sampler reads; with both disabled it is
    [f ()] plus two atomic loads.  Spans
    nest naturally: a child's [ts, ts+dur] interval lies inside its
    parent's because the parent's event is recorded after the child
    returns.  Recording happens on the current domain's buffer, so
    spans opened inside {!Dse.Pool} workers are safe and carry the
    worker's domain id as [tid]. *)

type handle

val with_ :
  ?cat:string -> ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk under a named span.  The span is recorded even if the
    thunk raises (the exception is re-raised), keeping traces complete. *)

val with_span :
  ?cat:string ->
  ?attrs:(string * Json.t) list ->
  string ->
  (handle -> 'a) ->
  'a
(** Like {!with_} but hands the span to the thunk so attributes only
    known at the end (cycle counts, node counts) can be attached with
    {!add_attr}. *)

val add_attr : handle -> string -> Json.t -> unit
(** No-op when tracing is disabled. *)

val event : ?cat:string -> ?attrs:(string * Json.t) list -> string -> unit
(** Record an instant event (e.g. a solver incumbent update). *)

val counter : ?cat:string -> string -> (string * float) list -> unit
(** Record a Chrome counter-track sample ([ph = "C"]): each [(series,
    value)] pair becomes one series of the named counter track, so
    e.g. the solver's incumbent objective plots over time in
    Perfetto. *)

(** The cmdliner term shared by all five binaries — [reconfigure],
    [mcc], [appinfo], [bench] and [fuzz]: [-v]/[-vv] verbosity for
    [Logs], [--trace-out FILE] for the Chrome trace-event export,
    [--metrics-out FILE] for the metrics dump, [--profile-out FILE] for
    the sampling profiler's folded-stacks table. *)

type t = {
  verbosity : int;
  trace_out : string option;
  metrics_out : string option;
  profile_out : string option;
}

val term : t Cmdliner.Term.t

val exit_output : int
(** 2: the exit status of a run whose [--trace-out], [--metrics-out] or
    [--profile-out] file cannot be opened. *)

val with_reporting : t -> string -> (unit -> 'a) -> 'a
(** [with_reporting t tool f] opens every requested output file, sets
    up the [Logs] reporter and level, enables span recording when a
    trace was requested and the sampling profiler when a profile was,
    runs [f] under a root span named [tool], then writes the files
    (also on exceptions, so a failing run still leaves a loadable
    trace).  A file that cannot be opened ends the process before [f]
    runs: one line on stderr and exit {!exit_output}. *)

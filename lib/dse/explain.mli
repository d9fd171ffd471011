(** Decision-provenance reports over the {!Obs.Journal} instants of
    the trace stream.

    One pipeline run with journalling enabled leaves a raw event
    stream: per-candidate engine outcomes (hit / build / priced /
    unfit / in-flight dedup / bounds-pruned / infeasible), solver
    incumbent
    improvements, and static-bound tightness checks.  [of_journal]
    aggregates it into a report answering "why did the run do what it
    did": the incumbent timeline of every solve, a per-candidate
    outcome table whose totals reconcile with the [dse.*] metrics
    ([builds = dse.builds], [priced = dse.engine.priced],
    [hits = dse.engine.hits], [pruned = dse.bounds.pruned]), and
    tightness statistics of every
    bound the run computed.

    Rendered with [~timings:false] the report contains no wall-clock
    fields and candidates are sorted by (app, config), so a pinned
    deterministic run golden-tests byte-for-byte. *)

type incumbent = {
  ts_ns : int64;
  node : int;  (** branch-and-bound node at which the incumbent landed *)
  objective : float;
  bound : float option;  (** previous best objective; [None] for the first *)
}

type solve = {
  nodes : int;
  pruned_bound : int;
  pruned_validity : int;
  incumbent_count : int;
  objective : float option;  (** [None]: infeasible *)
  timeline : incumbent list;  (** oldest first *)
}

type candidate = {
  app : string;
  config : string;  (** the codec's canonical encoding *)
  hits : int;
  builds : int;
  priced : int;
  unfit : int;
  dedup : int;
  pruned : int;
  infeasible : int;
}

type accounting = {
  a_hits : int;
  a_builds : int;
  a_priced : int;
  a_unfit : int;
  a_dedup : int;
  a_pruned : int;
  a_infeasible : int;
}

type tightness_stats = {
  t_count : int;
  t_min : float;
  t_mean : float;
  t_max : float;
}

type bounds_report = {
  computed : int;
  verified : int;  (** verify-phase cross-checks of a built result *)
  violations : int;  (** actual runtime outside its static bounds *)
  tightness : tightness_stats option;  (** [None] when no ratios exist *)
}

type schedule_phase = {
  p_index : int;
  p_start : int;  (** first retired instruction *)
  p_end : int;  (** one past the last retired instruction *)
  p_dominant : string;  (** coarse behavioral class *)
}

type schedule_switch = {
  w_at : int;  (** retired-instruction boundary of the switch *)
  w_cycles : int;  (** reconfiguration cycles charged *)
  w_to : string;  (** parameters of the installed configuration *)
}

type schedule_report = {
  s_phases : schedule_phase list;  (** journal order = phase order *)
  s_selects : (int * string) list;  (** (phase, selected parameters) *)
  s_switches : schedule_switch list;
  s_static_seconds : float option;
  s_scheduled_seconds : float option;
  s_switch_cycles : int option;
  s_gain_pct : float option;
}
(** Aggregated [schedule.*] events of a phase-aware run: detected
    phases, the per-phase selections, every reconfiguration switch,
    and the verified static-vs-scheduled comparison. *)

type t = {
  meta : (string * Obs.Json.t) list;  (** the run's [run.meta] event *)
  solves : solve list;
  candidates : candidate list;  (** sorted by (app, config) *)
  account : accounting;
  bounds : bounds_report;
  schedule : schedule_report option;
      (** [None] when the run recorded no [schedule.*] events, so
          static-run reports are unchanged *)
}

val considered : accounting -> int
(** Total engine decisions: the sum of all six outcome counts. *)

val of_events : Obs.Trace.event list -> t
(** Reads the ["journal"] instants among [events], in list order;
    events of other categories are ignored. *)

val of_journal : unit -> t
(** [of_events (Obs.Journal.events ())]. *)

val to_json : ?timings:bool -> t -> Obs.Json.t
(** Stable field order.  [~timings:false] (default [true]) omits every
    wall-clock field for golden testing. *)

val to_markdown : ?timings:bool -> t -> string

val write_json : ?timings:bool -> out_channel -> t -> unit
(** Write {!to_json} (newline-terminated) to a channel the caller
    opened, so a bad path fails before the run rather than after. *)

val write_markdown : ?timings:bool -> out_channel -> t -> unit

(** Bench history (append-only JSONL) and regression gating.

    Each benchmark run appends one {!entry} per experiment — keyed by
    git revision and target name — to a [BENCH_history.jsonl] file;
    {!check} compares a fresh entry against the median of the last
    [window] historical entries for the same target under per-metric
    relative thresholds, so CI can fail a run that regresses
    wall-clock, node counts or cache effectiveness. *)

type entry = {
  rev : string;  (** git revision the run was built from *)
  target : string;  (** experiment name, e.g. ["fig2"] *)
  time : float;  (** unix epoch seconds (informational) *)
  metrics : (string * float) list;
}

val entry_to_json : entry -> Json.t
val entry_of_json : Json.t -> (entry, string) result

val write : out_channel -> entry -> unit
(** Write one JSON line to a channel and flush it. *)

val append : string -> entry -> unit
(** Append one JSON line to [path], creating the file if needed. *)

val load : string -> (entry list, string) result
(** All entries in file order; a missing file is [Ok []] (first run);
    an unreadable file is an [Error], and a malformed line one naming
    the line. *)

type rule = {
  metric : string;
  max_ratio : float option;
      (** regression when [current/baseline] exceeds this *)
  min_ratio : float option;
      (** regression when [current/baseline] falls below this *)
}

val default_rules : rule list
(** Wall-clock 1.5x (noisy), solver nodes / simulated cycles / builds
    1.05x (deterministic), bounds-pruned and engine hits floored at
    0.95x (pruning power and cache effectiveness must not silently
    erode), simulator and solver throughput ([sim_cycles_per_second],
    [binlp_nodes_per_second], recorded by [@sim-perf] and
    [@solver-perf]) floored at 0.67x. *)

type regression = {
  metric : string;
  baseline : float;
  current : float;
  ratio : float;
  limit : float;
  above : bool;  (** [true]: exceeded [max_ratio], else below [min_ratio] *)
}

val median : float list -> float
(** @raise Invalid_argument on the empty list. *)

val check :
  ?window:int -> ?rules:rule list -> history:entry list -> entry -> regression list
(** Baseline = median over the last [window] (default 5) entries with
    the entry's target.  Metrics absent from either side, targets with
    no history, and zero baselines are skipped — a first run never
    regresses. *)

val pp_regression : Format.formatter -> regression -> unit

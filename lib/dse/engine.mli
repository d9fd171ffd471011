(** The shared evaluation engine: every [(application, configuration)
    → cost] evaluation in the DSE stack goes through here.

    The paper's bottleneck is evaluation cost — each candidate
    configuration costs a ~30-minute synthesis, which is why it
    measures only 52 one-at-a-time perturbations.  Our reproduction
    inherits that shape in software: simulation plus resource
    estimation dominates every experiment's wall clock, and the
    experiments overlap heavily (the base configuration is re-measured
    by nearly every client; the Figure 2/3/4 sweeps share points with
    the one-at-a-time model).  The engine turns that cross-experiment
    redundancy into cache hits.

    {b Memoization.}  Whole-run results are stored in a
    content-addressed memo cache keyed by [(target name, application
    name, digest of the target codec's canonical encoding, noise
    amplitude)]; nothing else is memoized but recordings and their
    replays, so a per-segment measurement ({!segments_on}) is priced
    from them on every request.  Evaluation is
    deterministic — the simulator is cycle-accurate and the synthesis
    model analytic, with {e deterministic} per-configuration
    measurement noise — so a memoized result is bit-identical to a
    recomputation.  Distinct noise amplitudes occupy distinct keys,
    which is what makes noise-ablation studies safe: they never
    observe each other's (differently perturbed) measurements.
    Including the target name keeps two targets that happen to share a
    configuration encoding from ever colliding in the cache.

    {b Targets.}  Every evaluation names its backend by a
    {!Target.probe} (e.g. [Target_leon2.probe]).

    {b One recording per execution class.}  A miss does not simulate
    its configuration.  It names the configuration's execution class
    ([probe.representative]: both caches and every price-only field at
    their base values, a trap-free window count lowered), whose run is
    recorded once per [(target, application, class)] through
    [probe.simulate] ({!Sim.Recording}); one made for a windowed
    request (segments, phase detection, a schedule) marks a window
    every so many retired instructions.  Any recording of the class
    serves a whole-run miss; a segmented request needs one whose
    windows its boundaries fall on, since a segment is a union of
    windows.  The configuration's own caches ([probe.caches]) are
    replayed over the recording, each cache geometry at most once per
    recording (the recorded caches' own replays come with the
    recording), and the resulting profile is priced ([probe.price]).
    The same recording answers per-segment measurement
    ({!segments_on}), phase detection ({!windows_on}) and a schedule's
    verification ({!recording_on}).  A request that needs windows the
    class's recording does not mark records the class again (counted by
    [sim.runs]); that recording replaces the old one.  Recordings and
    replays follow the same in-flight discipline as the memo entries,
    so which runs and replays happen depends only on the requests.
    Replay and pricing are exact, so every answer is bit-identical to
    a simulation.  The engine keeps only the most recently evaluated
    application's recordings (never one being made or waited on).

    {b Retention.}  Memo entries are held packed, grouped by
    application (both targets, every noise).  When they retain more
    than {!budget_bytes}, the least recently used
    applications are dropped whole, never the one being evaluated nor
    one with a computation in flight.  Use order and sizes follow the
    requests, so which applications are dropped depends only on the
    request sequence; a dropped application is recomputed, bit for
    bit, when asked again.

    {b Deduplication.}  Concurrent requests for an in-flight key wait
    for the winner's result instead of recomputing, and the batch APIs
    collapse repeated requests before scheduling.

    {b Parallelism.}  Batch evaluations fan out on the persistent
    {!Pool} (work-stealing domain pool) under one pool-selection rule,
    {!map}.

    {b Observability.}  Each lookup counts once: in
    [dse.engine.misses] when it evaluates, in
    [dse.engine.inflight_dedup] when it finds an entry created by its
    own batch (one {!map} fan-out, or a repeat inside one batch call),
    finished or not, and in [dse.engine.hits] otherwise.  So the split
    depends on the requests, not on domain timing.  Every miss that
    evaluates is a build or priced, so [dse.engine.misses =
    dse.builds + dse.engine.priced] plus the over-capacity [Unfit]
    answers: [dse.builds] counts the first miss priced from each
    recording, [dse.engine.priced] the others; the journal kinds are
    [engine.build] and [engine.priced].  {!segments_on},
    {!windows_on} and {!recording_on} are not evaluations and count no
    lookup.
    [dse.engine.evictions] counts dropped applications and the gauge
    [dse.engine.retained_bytes] the memo's bytes.  [sim.runs] counts
    the recordings made and [sim.replays] the cache replays.  Each
    miss runs under an [engine.build] span. *)

type t

val default : unit -> t
(** The shared process-wide engine (on the {!Pool.default} pool),
    created on first use.  All library clients use this instance, so
    one experiment's evaluations are the next one's cache hits. *)

val create : ?pool:Pool.t -> unit -> t
(** A fresh engine with an empty cache (for tests).  An explicit
    [pool] is always used for batches; otherwise {!Pool.default} is
    resolved lazily and only on hosts with more than one core —
    single-core machines run batches inline, where a second domain is
    pure stop-the-world overhead. *)

val clear : t -> unit
(** Drop every cached result and recording (counters are unaffected).
    For tests that need a cold engine. *)

val budget_bytes : int
(** The memo's retention budget, in bytes: 256 KiB. *)

val retained_bytes : t -> int
(** Bytes the memo entries retain now (the
    [dse.engine.retained_bytes] gauge of the last engine changed). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving map under the engine's pool-selection rule (see
    {!create}), the one its batches use; model building fans its
    per-variable measurements out through it.  Force lazily compiled
    programs first: [Lazy] is not domain-safe. *)

val eval_on :
  ?noise:float -> t -> 'c Target.probe -> Apps.Registry.t -> 'c -> Cost.t
(** Synthesize and run one configuration of an arbitrary target,
    memoized under the probe's target name.  [noise] is the
    deterministic LUT measurement-noise amplitude, a fraction of the
    device (0.005 = ±0.5 %).
    @raise Invalid_argument on structurally invalid configurations. *)

val eval_profiled_on :
  ?noise:float ->
  t ->
  'c Target.probe ->
  Apps.Registry.t ->
  'c ->
  Cost.t * Sim.Profiler.t
(** Like {!eval_on} but also returns the execution profile of the
    (memoized) simulation — the energy model charges per-event costs
    from it without a second run. *)

val eval_feasible_on :
  ?noise:float -> t -> 'c Target.probe -> Apps.Registry.t -> 'c -> Cost.t option
(** [None] when the configuration is invalid per the probe or exceeds
    the probe's device budget.  Resources are elaborated {e once} and
    reused for both the feasibility check (on the un-noised estimate)
    and the returned cost; over-capacity configurations are cached
    without ever reaching the simulator. *)

val segments_on :
  t ->
  'c Target.probe ->
  Apps.Registry.t ->
  window:int ->
  boundaries:int list ->
  'c list ->
  Sim.Profiler.t list list
(** Per-segment measurement of configurations of one application, in
    input order, fanned out under {!map}: for each, the priced profiles
    of its segments [[0, b1)], ..., [[bn, end)] of the reps-scaled run,
    as {!Target.S.run_app_segmented} carves them; they sum field for
    field to its whole-run profile.  The boundaries are strictly
    increasing multiples of [window], the window its class's recording
    marks.  Each answer is priced from that recording and its replays.
    Not an evaluation: no lookup is counted, nothing is memoized, and
    the recording stays unclaimed, so a later {!eval_on} of each
    configuration is a miss and the first on the class is its build.
    @raise Invalid_argument on boundaries that are not strictly
    increasing multiples of [window]. *)

val windows_on :
  t -> 'c Target.probe -> Apps.Registry.t -> window:int -> 'c -> Sim.Profiler.t list
(** The cold epoch of the configuration's run, per window of [window]
    retired instructions (the last one possibly shorter), as simulating
    it would profile them: its class's recording, with its caches
    replayed and its prices applied.  What {!Sim.Phase.split} detects
    phases from.  Not an evaluation: no lookup is counted, and the
    recording stays unclaimed until a miss prices from it.
    @raise Invalid_argument if [window < 1]. *)

val recording_on :
  t -> 'c Target.probe -> Apps.Registry.t -> window:int -> 'c list -> Sim.Recording.t
(** The recording of the configurations' shared execution class,
    marked at every multiple of [window] inside the run.  A schedule of
    them replays from it ({!Sim.Machine.replay_phased}): a schedule
    shares every static group's decision across its phases, so its
    configurations share a class.  Counted like {!windows_on}.
    @raise Invalid_argument if [window < 1] or the configurations are
    of different execution classes. *)

type admission =
  | Infeasible  (** structurally invalid or exceeds the device *)
  | Pruned of float * float
      (** skipped without simulating: the static {e lower} runtime
          bound already exceeds the caller's cutoff; carries the
          [(lo, hi)] static bounds in seconds *)
  | Evaluated of Cost.t  (** admitted and fully evaluated *)

val eval_bounded_on :
  ?noise:float ->
  cutoff:(Synth.Resource.t -> float) ->
  t ->
  'c Target.probe ->
  Apps.Registry.t ->
  'c ->
  admission
(** {!eval_feasible_on} with a static-bounds admission gate.  When the
    probe carries a [static_bounds] model and
    [cutoff resources < infinity], the configuration's sound static
    runtime bounds are computed first ([dse.bounds.computed]); a
    candidate whose {e best-case} runtime strictly exceeds the cutoff
    is provably dominated and returned as {!Pruned} without touching
    the simulator ([dse.bounds.pruned]).  [cutoff] receives the same
    (noised) resource estimate a full evaluation would report, so
    callers can fold the resource share of their objective into the
    runtime cutoff.  Returning [infinity] disables pruning for that
    candidate; probes without [static_bounds] always evaluate.
    Pruning is exact, not heuristic: searches driven through this path
    select byte-identical winners, just with fewer simulations. *)

val eval_all_feasible_on :
  ?noise:float ->
  t ->
  'c Target.probe ->
  Apps.Registry.t ->
  'c list ->
  Cost.t option list
(** Batch {!eval_feasible_on} for one application, in input order.
    Repeated requests are collapsed before scheduling (counted as
    [dse.engine.inflight_dedup]) and the distinct ones fan out under
    {!map}. *)

(** Differential oracles: properties that cross-check two independent
    implementations of the same semantics, run over {!Gen}'s random
    inputs.

    Each oracle packages a generator, a printer, and a property behind
    an existential, so the runner can treat them uniformly.  A run is
    fully determined by [(oracle, seed, count)] — {!run} draws from
    [Random.State.make [| seed |]] and nothing else — which is what
    makes corpus replay exact. *)

type outcome =
  | Pass of { trials : int }
  | Fail of {
      counterexample : string;  (** printed, fully shrunk *)
      shrink_steps : int;
      messages : string list;  (** [Test.fail_reportf] diagnostics *)
    }
  | Crash of { counterexample : string; message : string }
      (** The property raised instead of returning false. *)

type t =
  | T : {
      name : string;
      doc : string;
      gen : 'a QCheck2.Gen.t;
      print : 'a -> string;
      prop : 'a -> bool;
    }
      -> t

val name : t -> string
val doc : t -> string

val run : ?count:int -> seed:int -> t -> outcome
(** Check [count] (default 200) random instances, shrinking any
    failure to a local minimum.  Deterministic in [(seed, count)]. *)

val interp_vs_sim : t
(** Random program x random valid configuration: {!Minic.Interp}
    against {!Sim.Cpu} executing {!Minic.Codegen} output. *)

val optimize_preserves : t
(** [--O1]/[--O2] program against the unoptimized interpretation, both
    interpreted and compiled. *)

val lint_sound : t
(** No definite-trap error and no uninitialized-use warning on
    programs that are safe on every path by construction. *)

val codec_roundtrip : t
(** {!Arch.Codec} print/parse/digest identity, plus rejection of
    duplicate keys and stray commas. *)

val mb_codec_roundtrip : t
(** {!Arch.Mb_codec} print/parse/digest identity for the MicroBlaze
    target, with the same duplicate/stray-comma rejections. *)

val binlp_exact : t
(** {!Optim.Binlp.solve} against {!Optim.Binlp.brute_force} on small
    SOS1 instances, product-form constraints included.  Compares the
    winning {e assignments}, not just the objectives — both sides pin
    the same tie-break (minimal objective, then lexicographically
    smallest point). *)

val binlp_par : t
(** Parallel {!Optim.Binlp.solve} on explicit 2- and 4-worker
    {!Dse.Pool}s against the sequential solve: same status and a
    bit-identical winner (objective and assignment), for every worker
    count.  Exercises the shared-incumbent search under real domain
    interleaving. *)

val json_roundtrip : t
(** {!Obs.Json} print/parse identity, bit-exact on finite floats. *)

val pretty_parse : t
(** {!Minic.Pretty} output re-parses to a structurally equal program. *)

val bounds_leon2 : t
(** Random program x random LEON2 configuration: simulated cycles lie
    within the static [best, worst] bounds of
    {!Minic.Bounds}/{!Dse.Bounds} — a sanitizer cross-checking the
    analysis and the simulator against each other. *)

val bounds_microblaze : t
(** The same bounds sanitizer on the MicroBlaze-like backend (barrel
    shifter and multiplier/divider options included). *)

val journal_pool : t
(** {!Obs.Journal} under {!Dse.Pool} concurrency: events recorded from
    worker domains are complete after the trace merge, well-formed
    (serializable instants, non-empty kinds, non-negative timestamps),
    and each domain's journal instants are monotonically timestamped
    ({!Obs.Trace.events_by_domain}). *)

val schedule_dominance : t
(** The scheduled optimum on synthetic multi-phase models is never
    worse than the static optimum of the phase-summed model, both with
    the switch cost forced to zero (the schedule problem solved without
    its switch terms) and with the real switch terms — uniform
    replication of the static winner is always schedule-feasible and
    pays exactly zero switch cost.  The switch-term solve's winner and
    objective bits equal {!Optim.Binlp.brute_force}'s. *)

val phase_determinism : t
(** {!Sim.Phase.detect} is bit-deterministic across repeated runs and
    {!Dse.Pool} worker counts, and its phases partition the retired
    instruction stream. *)

val segmented_vs_plain : t
(** Random program x random LEON2 and MicroBlaze configurations x 0-3
    boundaries inside the run x 1-3 reps: {!Dse.Target.S.run_app_segmented}'s
    [result] equals {!Dse.Target.S.run_app}'s structurally, and its
    phase profiles sum to the whole profile field by field — the
    identity behind one recording answering a configuration's whole
    run and its segments alike. *)

val engine_vs_simulated : t
(** Random program x random LEON2 and MicroBlaze configurations (cache
    geometry and policy, price-only fields, window count) x 1-3 reps x
    0-3 segment boundaries on window marks: on a fresh {!Dse.Engine},
    the whole-run answer ({!Dse.Engine.eval_profiled_on}) equals
    {!Dse.Target.probe}'s [simulate], and the segments
    ({!Dse.Engine.segments_on}) equal
    {!Dse.Target.S.run_app_segmented}'s phase profiles, field for field,
    their sum its profile and the seconds of their sum its seconds.  On LEON2 a
    configuration at a random larger window count joins when the drawn
    one runs trap-free.  The identity behind the engine answering every
    evaluation from a recording of its execution class, replayed
    through its own caches and priced. *)

val recording_vs_simulated : t
(** Random program x two random LEON2 and two random MicroBlaze
    configurations x 1-3 reps x a random window: a run inside
    {!Sim.Recording.capture}, which replays its warm epoch instead of
    simulating it, returns what the same run outside one returns, field
    for field ([probe.simulate]'s seconds and profile too); phase
    detection from the engine's recording ({!Dse.Engine.windows_on},
    at the window and at 1-4 windows per observation) equals
    {!Sim.Phase.detect}; and a schedule alternating the two
    configurations at window marks replays
    ({!Dse.Target.S.replay_app_phased}) to exactly
    {!Dse.Target.S.run_app_phased}'s result, phase profiles and switch
    cycles. *)

val all : t list
val find : string -> t option

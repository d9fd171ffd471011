(* The first-class Target abstraction: everything the DSE stack needs
   to know about one soft-core backend, bundled as a module.

   Two views of the same backend:

   - {!S} is the full interface the {!Stack} functor consumes —
     parameter space, codec, validity couplings, resource model,
     formulation structure and simulation; [Stack.Make (T)] instantiates
     the paper's whole measure → formulate → solve → verify pipeline
     for [T].
   - {!probe} is the small first-class record the {!Engine} keys its
     memo cache with: just enough to identify, validate, estimate and
     simulate one configuration.  Keeping it a plain polymorphic record
     (rather than a packed module) lets the engine stay monomorphic in
     ['c] per call while serving every target from one cache.

   Both views' simulation half — runs, phases, schedules, cycle prices
   and the probe's simulator fields — is derived once, by {!Simulated},
   from how the target lowers its configuration onto the simulator. *)

type 'c probe = {
  target : string;
      (** registry name; part of the engine's memo key, so two targets
          sharing an encoding never collide *)
  digest : 'c -> string;  (** content address of the canonical encoding *)
  describe : 'c -> string;
      (** the canonical encoding itself (the codec's [to_string]);
          provenance reports name candidates with it *)
  is_valid : 'c -> bool;
  resources : 'c -> Synth.Resource.t;
  device_luts : int;  (** the target device's capacity *)
  device_brams : int;
  simulate : Apps.Registry.t -> 'c -> float * Sim.Profiler.t;
      (** cycle-accurate (seconds, profile) of one application run *)
  representative : run:('c -> Sim.Profiler.t) -> 'c -> 'c;
      (** The configuration's execution class: the configuration whose
          run is recorded ({!Sim.Recording}) and replayed for this
          one.  Both caches and every price-only field (one that only
          {!Sim.Cost_model}'s stall prices read) are at their base
          values, so every configuration that executes the same
          instruction and address stream shares one class.  A target
          whose window count can change also lowers it to the smallest
          count at which [base] takes no window trap, when the
          configuration's count is at or above it: walking up from the
          smallest count, [run c] is the profile of simulating [c], a
          configuration that is its own class. *)
  caches : 'c -> Arch.Config.cache * Arch.Config.cache;
      (** The icache and dcache the configuration runs, as lowered onto
          the simulator: the geometries replayed over its class's
          recording. *)
  price : 'c -> Sim.Profiler.t -> float * Sim.Profiler.t;
      (** [price c p] is what [simulate] reports for [c], given [p], the
          profile of [c]'s class with [c]'s own cache misses:
          {!Sim.Cost_model.price} under [c]'s cost table. *)
  static_bounds : (Apps.Registry.t -> 'c -> float * float) option;
      (** sound [best, worst] runtime bounds (seconds, full
          reps-scaled run — the same unit [simulate] reports) computed
          without simulating; [None] when the backend has no static
          cost model.  The engine's bounds-admission path uses this to
          skip provably dominated simulations. *)
}

module type S = sig
  (** One soft-core backend, as consumed by [Stack.Make]. *)

  type config
  type group

  type var = {
    index : int;  (** 1-based, the paper's x_i subscript *)
    group : group;
    label : string;
    apply : config -> config;
  }

  val name : string
  (** Registry key, e.g. ["leon2"]; lowercase. *)

  val description : string

  (** {2 Configurations} *)

  val base : config
  (** The out-of-the-box configuration every delta is relative to. *)

  val equal : config -> config -> bool
  val validate : config -> (unit, string) result
  val is_valid : config -> bool
  val pp : config Fmt.t

  val to_string : config -> string
  (** Canonical encoding: always emits every field, so structurally
      equal configurations encode (and digest) identically. *)

  val of_string : string -> (config, string) result
  val digest : config -> string

  (** {2 Decision variables} *)

  val vars : var list
  (** All one-at-a-time perturbations, [index] running 1..[var_count]. *)

  val var_count : int
  val var : int -> var
  (** @raise Invalid_argument when out of 1..[var_count]. *)

  val groups : group list
  val group_members : group -> var list
  val group_to_string : group -> string
  val apply_all : config -> var list -> config

  val quick_dims : group list
  (** A small, runtime-sensitive subspace for scaled-down studies and
      smoke runs (the LEON2 instance uses the paper's Section 5 dcache
      geometry dims). *)

  val reference_config : var -> config
  (** The configuration a variable's marginal cost is measured against:
      [base] for most variables; coupled variables (e.g. replacement
      policies that need associativity) use the cheapest configuration
      on which they are structurally valid. *)

  (** {2 Formulation structure} *)

  val couplings : (int * int list) list
  (** Validity couplings [(antecedent, consequents)]: selecting the
      antecedent variable requires selecting at least one consequent
      ([x_a <= sum x_c] in the BINLP). *)

  val products : ((int * float) list * int list) list
  (** Nonlinear resource terms, one per cache: a factor
      [(1 + sum coeff_i x_i)] over the ways variables (with explicit
      multipliers) times the linear combination of the way-size
      variables' deltas.  Variables in no product's size list
      contribute linearly. *)

  (** {2 Resources and device} *)

  val resources : config -> Synth.Resource.t
  (** @raise Invalid_argument on invalid configurations. *)

  val feasible : config -> bool
  (** Valid and fits the target device. *)

  val device_luts : int
  val device_brams : int

  (** {2 Heuristic-search hooks} *)

  val random_config : Sim.Rng.t -> config
  (** A uniformly random structurally-valid configuration. *)

  val group_options : group -> (config -> config) list
  (** All alternative values of one parameter group, as transformers of
      the current configuration (including "revert to base"). *)

  val statically_equivalent : Apps.Features.t -> config -> config -> bool
  (** Is the candidate provably runtime-identical to the current
      configuration by a static argument over the application's
      features?  Used to prune coordinate-descent builds. *)

  (** {2 Reporting} *)

  val changed_params : config -> (string * string) list
  (** Human-readable (parameter, value) pairs where a configuration
      differs from [base]. *)

  val sweep_configs : config list
  (** The target's scaled-down exhaustive geometry sweep (the LEON2
      instance: the paper's 28 dcache ways x way-size points). *)

  val describe_sweep_point : config -> string
  (** Short label of a sweep point, e.g. ["2x16KB"]. *)

  (** {2 Runtime reconfiguration}

      The switch-cost model for phase-scheduled execution, in
      Al-Wattar-style region framing: every runtime-tunable parameter
      group lives in a named floor-plan region, and switching the
      value of a group reprograms that group's slice of its region —
      a fixed cycle price per changed group.  Groups outside every
      region are static: they hold live architectural state (or
      structural logic) and cannot change at runtime, so a schedule
      shares one decision across all phases for them. *)

  val reconfig_regions : (string * group list) list
  (** Disjoint named floor-plan regions covering the runtime-tunable
      groups. *)

  val group_switch_cycles : group -> int
  (** Cycles to reprogram one group's slice of its region; [0] for
      static groups. *)

  val switch_cycles : config -> config -> int
  (** Total reconfiguration cycles between two configurations: the sum
      of [group_switch_cycles] over the groups whose projections
      differ.  [switch_cycles c c = 0]. *)

  val keep_caches_on_switch : bool
  (** Reconfiguration policy: [true] when partial reconfiguration
      leaves an untouched region's block RAM (cache contents) intact
      across a switch; [false] when a switch flushes the caches. *)

  val static_groups : group list
  (** Groups that cannot be switched at runtime (e.g. the LEON2
      register-window file, which holds live architectural state). *)

  val schedule_dims : group list
  (** The default decision dims for schedule solves: a runtime-switch-
      sensitive subspace small enough that per-phase copies of its
      variables keep the scheduled BINLP tractable. *)

  (** {2 Simulation} *)

  val run_app : ?config:config -> Apps.Registry.t -> Sim.Machine.result
  val run_program : ?mem_size:int -> config -> Isa.Program.t -> Sim.Machine.result

  val detect_phases :
    ?options:Sim.Phase.options -> Apps.Registry.t -> Sim.Phase.t
  (** Segment one cold execution of the application on [base] into
      program phases ({!Sim.Phase.detect}); deterministic.  The
      pipeline's own detection reads the engine's recording instead
      ([Schedule.run]). *)

  val run_app_segmented :
    ?config:config -> boundaries:int list -> Apps.Registry.t -> Sim.Machine.phased
  (** Like {!run_app} (bit-identical totals) but additionally carves
      the profile at the given retired-instruction boundaries: the
      simulated reference for per-segment measurement, which the
      engine answers from a recording. *)

  val run_app_phased :
    schedule:(int * config) list -> Apps.Registry.t -> Sim.Machine.phased
  (** Execute the application under a reconfiguration schedule
      [(start_insn, config)] (first entry must start at 0), paying
      {!switch_cycles} at each boundary, once per repetition, plus the
      wrap-around switch back to the first configuration at each
      repetition boundary; caches follow [keep_caches_on_switch]. *)

  val replay_app_phased :
    schedule:(int * config) list -> Sim.Recording.t -> Sim.Machine.phased
  (** {!run_app_phased} answered from a recording of the application on
      the schedule's execution class, marked at its boundaries
      ({!Sim.Machine.replay_phased}): bit-identical, without
      simulating. *)

  val cycle_model : config -> Bounds.cycle_model
  (** The configuration's per-class cycle prices — the same shared
      {!Sim.Cost_model} record the simulator's execute handlers charge
      from, re-exported here as the backbone of [probe.static_bounds],
      of {!Bounds} pricing, and of [mcc --bounds]. *)

  val probe : config probe
  (** This target's engine probe; [probe.target = name]. *)
end

(* The simulation half of {!S} and of the target's probe, derived once
   from how a target runs on the simulator: its configuration lowered
   onto the simulator's knobs, a per-shift stall for cores without a
   barrel shifter, and what a runtime switch costs. *)
module Simulated (L : sig
  type config

  val name : string
  val base : config
  val lower : config -> Arch.Config.t
  val shift_stall : config -> int
  val switch_cycles : config -> config -> int
  val keep_caches_on_switch : bool
end) =
struct
  let run_app ?(config = L.base) (app : Apps.Registry.t) =
    Sim.Machine.run ~reps:app.Apps.Registry.reps
      ~shift_stall:(L.shift_stall config) (L.lower config)
      (Lazy.force app.Apps.Registry.program)

  let run_program ?mem_size config prog =
    Sim.Machine.run ?mem_size ~shift_stall:(L.shift_stall config)
      (L.lower config) prog

  let detect_phases ?options (app : Apps.Registry.t) =
    Sim.Phase.detect ?options ~shift_stall:(L.shift_stall L.base)
      (L.lower L.base) (Lazy.force app.Apps.Registry.program)

  let run_app_segmented ?(config = L.base) ~boundaries (app : Apps.Registry.t) =
    Sim.Machine.run_segmented ~reps:app.Apps.Registry.reps
      ~shift_stall:(L.shift_stall config) ~boundaries (L.lower config)
      (Lazy.force app.Apps.Registry.program)

  (* A schedule [(start_insn, config)] as the lowered first
     configuration, the switches and the wrap-around charge of
     {!Sim.Machine.run_phased}. *)
  let phased_run ~schedule k =
    match schedule with
    | [] -> invalid_arg (L.name ^ ": run_app_phased: empty schedule")
    | (s0, first) :: rest ->
        if s0 <> 0 then
          invalid_arg (L.name ^ ": run_app_phased: schedule must start at 0");
        let rec switches prev = function
          | [] -> []
          | (at, c) :: tl ->
              {
                Sim.Machine.at_insn = at;
                config = L.lower c;
                shift_stall = L.shift_stall c;
                cycles = L.switch_cycles prev c;
              }
              :: switches c tl
        in
        let last = List.fold_left (fun _ (_, c) -> c) first rest in
        k ~shift_stall:(L.shift_stall first)
          ~keep_caches:L.keep_caches_on_switch
          ~wrap_cycles:(L.switch_cycles last first)
          ~switches:(switches first rest) (L.lower first)

  let run_app_phased ~schedule (app : Apps.Registry.t) =
    phased_run ~schedule
      (fun ~shift_stall ~keep_caches ~wrap_cycles ~switches first ->
        Sim.Machine.run_phased ~reps:app.Apps.Registry.reps ~shift_stall
          ~keep_caches ~wrap_cycles ~switches first
          (Lazy.force app.Apps.Registry.program))

  let replay_app_phased ~schedule recording =
    phased_run ~schedule
      (fun ~shift_stall ~keep_caches ~wrap_cycles ~switches first ->
        Sim.Machine.replay_phased ~shift_stall ~keep_caches ~wrap_cycles
          ~switches recording first)

  let cycle_model config =
    Bounds.of_arch_config ~shift_stall:(L.shift_stall config) (L.lower config)

  (* The probe's fields: a run, the caches replayed for it, the seconds
     and profile [simulate] reports under one cost table per
     configuration, and the static bounds from that table. *)
  let simulate app config =
    let result = run_app ~config app in
    (Sim.Machine.seconds result, result.Sim.Machine.profile)

  let caches config =
    let l = L.lower config in
    (l.Arch.Config.icache, l.Arch.Config.dcache)

  let price config profile =
    let p = Sim.Cost_model.price (cycle_model config) profile in
    (Sim.Machine.profile_seconds p, p)

  let static_bounds =
    Some (fun app config -> Bounds.app_bounds (cycle_model config) app)
end

(** Application execution harness.

    The paper measures applications whose wall-clock runtimes reach
    minutes (billions of cycles).  Simulating every repetition is
    pointless: after the first execution the caches are warm and every
    further execution of these deterministic kernels costs the same.
    [run] therefore simulates one cold execution and one warm
    execution, checks they compute the same result, and reports
    [cold + (reps - 1) * warm] — a faithful model of a long run at a
    tiny fraction of the simulation cost.

    A run inside {!Recording.capture} records its cold epoch, marked
    into the capture's windows, and simulates nothing more: every
    execution runs the cold epoch's reference stream again, so the
    warm epoch is the cold epoch's counts with the misses of its own
    caches' warm replay ({!Recording.own}), priced by
    {!Cost_model.price} under the run's cost table.  The result equals
    the full simulation's field for field; the cold/warm checksum
    comparison runs only outside a capture, and inside one the replay
    of the run's own caches must reproduce the simulated cold epoch's
    misses window by window instead.

    Every simulated run flushes its profile into the [sim.*] counters:
    [sim.runs] counts runs, [sim.cycles] their reps-scaled cycles and
    [sim.executed_cycles] the cycles actually simulated (the cold
    epoch, plus the warm one when [reps > 1] outside a capture). *)

type result = {
  profile : Profiler.t;   (** scaled to [reps] executions *)
  cold_cycles : int;
  warm_cycles : int;
  checksum : int;         (** %o0 at halt; equal across executions *)
}

val clock_hz : float
(** Nominal processor clock used to convert cycles to the paper's
    seconds scale (LEON2 on a VirtexE ran at 25 MHz). *)

val run :
  ?mem_size:int ->
  ?reps:int ->
  ?shift_stall:int ->
  Arch.Config.t ->
  Isa.Program.t ->
  result
(** [shift_stall] is forwarded to {!Cpu.create} (default 0: barrel
    shifter present, as on LEON2).
    @raise Cpu.Error on execution errors
    @raise Failure if cold and warm checksums disagree, or inside a
    capture if the replay of the run's caches disagrees with its
    simulation. *)

val seconds : result -> float
(** Scaled runtime in seconds at {!clock_hz}. *)

val profile_seconds : Profiler.t -> float
(** A profile's cycles in seconds at {!clock_hz}: [seconds r] is
    [profile_seconds r.profile]. *)

(** {2 Phased execution}

    Runtime reconfiguration: the same program runs while the
    microarchitecture is switched at pre-computed retired-instruction
    boundaries, paying a per-switch cycle cost.  Epoch structure
    mirrors {!run} — one cold execution plus one warm execution scaled
    by [reps - 1]; each warm repetition additionally pays
    [wrap_cycles] to reconfigure from the last phase's configuration
    back to the first at the repetition boundary. *)

type switch = {
  at_insn : int;  (** retired-instruction boundary (per execution) *)
  config : Arch.Config.t;  (** configuration installed at the boundary *)
  shift_stall : int;  (** forwarded to {!Cpu.reconfigure} *)
  cycles : int;  (** reconfiguration cost charged at this switch *)
}

type phased = {
  result : result;
  phase_profiles : Profiler.t list;
      (** one per phase, scaled to [reps] executions; sums to
          [result.profile] component-wise *)
  switch_cycles : int;
      (** total reconfiguration cycles included in [result.profile] *)
}

val run_phased :
  ?mem_size:int ->
  ?reps:int ->
  ?shift_stall:int ->
  ?keep_caches:bool ->
  ?wrap_cycles:int ->
  switches:switch list ->
  Arch.Config.t ->
  Isa.Program.t ->
  phased
(** [run_phased ~switches first prog] starts each execution on [first]
    (with [shift_stall], default 0) and applies each switch in order.
    A switch to the already-installed configuration is skipped, so a
    schedule with one distinct configuration is bit-identical to
    {!run}.  [keep_caches] is the target's reconfiguration policy: when
    set, a cache whose geometry a switch leaves unchanged keeps its
    contents (see {!Cpu.reconfigure}).
    @raise Invalid_argument if boundaries are not strictly increasing
    or a switch changes the register-window count.
    @raise Failure if cold and warm checksums disagree. *)

val run_segmented :
  ?mem_size:int ->
  ?reps:int ->
  ?shift_stall:int ->
  boundaries:int list ->
  Arch.Config.t ->
  Isa.Program.t ->
  phased
(** Like {!run} on a single configuration, but additionally snapshots
    the profile at each retired-instruction boundary: [result] is
    bit-identical to {!run} and [phase_profiles] carves it into
    per-phase deltas.  Used for per-phase measurement. *)

val replay_phased :
  ?shift_stall:int ->
  ?keep_caches:bool ->
  ?wrap_cycles:int ->
  switches:switch list ->
  Recording.t ->
  Arch.Config.t ->
  phased
(** {!run_phased} without simulating: [replay_phased ~switches recording
    first] answers from a recording of the same program on a
    configuration of the same execution class as every configuration
    of the schedule (same instruction and address stream).  The phases'
    event counts are the recording's, each cache is replayed through
    the switches that execute, and each phase is priced under the
    configuration installed during it; switch charges are
    {!run_phased}'s.  Bit-identical to {!run_phased}, counted by
    [sim.replays], not [sim.runs].
    @raise Invalid_argument if boundaries are not strictly increasing
    or a boundary is not one of the recording's window marks inside the
    execution. *)

val run_once : ?mem_size:int -> Arch.Config.t -> Isa.Program.t -> Cpu.t
(** Single cold execution, returning the machine for inspection. *)

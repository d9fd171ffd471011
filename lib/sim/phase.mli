(** Program-phase detection over windowed profiler deltas.

    One cold execution on a reference configuration is carved into
    fixed-size windows of retired instructions (the window marks of a
    {!Recording}, so the engine detects from the recording it prices
    every evaluation with); each window yields a
    feature vector (instruction mix + cache behavior) and a phase
    boundary opens where a window diverges from the running aggregate
    of the current phase.  Detection is deterministic: it is integer
    counter arithmetic over a deterministic simulation, independent of
    worker counts.

    Phase boundaries are expressed in retired instructions, which are
    configuration-independent (the architectural instruction stream
    does not depend on caches or latencies) — so boundaries detected
    on one configuration are valid switch points for any other. *)

type options = {
  window : int;  (** retired instructions per observation window *)
  threshold : float;  (** L1 feature distance opening a new phase *)
  min_windows : int;  (** windows a phase must span before it can close *)
  max_phases : int;  (** hard cap on detected phases *)
}

val default_options : options
(** [{ window = 4096; threshold = 0.35; min_windows = 4; max_phases = 8 }] *)

type phase = {
  start_insn : int;  (** first retired instruction of the phase *)
  end_insn : int;  (** one past the last retired instruction *)
  profile : Profiler.t;  (** cold-execution delta over this span *)
}

type t = { options : options; total_insns : int; phases : phase list }
(** Phases partition [0, total_insns) in order; there is always at
    least one phase. *)

val split : options -> Profiler.t list -> t
(** The detector itself: segment one cold execution given the profile
    of each of its windows of [options.window] retired instructions,
    in order (the last one possibly shorter).  A phase opens at a full
    window whose features lie farther than [threshold] from those of
    the open phase's windows, once that phase holds [min_windows]
    windows, up to [max_phases] phases.
    @raise Invalid_argument on nonsensical options. *)

val detect :
  ?options:options ->
  ?shift_stall:int ->
  ?mem_size:int ->
  Arch.Config.t ->
  Isa.Program.t ->
  t
(** One cold execution, recorded with a window mark every
    [options.window] retired instructions ({!Recording.capture}), then
    {!split} over its windows.  Counted by [sim.runs].
    @raise Invalid_argument on nonsensical options.
    @raise Cpu.Error on execution errors. *)

val count : t -> int
val boundaries : t -> int list
(** Interior boundaries only (excludes 0 and [total_insns]): exactly
    the [at_insn] switch points for {!Machine.run_phased}. *)

val digest : t -> string
(** Hex digest of the segmentation (options + boundaries + length) —
    used to extend memo keys for per-phase measurements. *)

val features : Profiler.t -> float array
(** The detector's feature vector for a profile delta (fractions in
    [0, 1]). *)

val distance : float array -> float array -> float
(** L1 distance between two feature vectors. *)

val dominant : Profiler.t -> string
(** Coarse behavioral class of a phase profile, for reporting: one of
    ["memory"], ["arith"], ["data"], ["control"], ["compute"]. *)

val pp : t Fmt.t

(** Target-parameterized static cycle bounds.

    {!Minic.Bounds} derives sound per-class dynamic instruction-count
    intervals from the minic CFG; this module prices each class for a
    concrete microarchitecture configuration, yielding sound
    [best-case, worst-case] cycle (and runtime) bounds without
    touching the simulator.

    The best case assumes every access hits the caches and no
    optional stall fires (no load interlock, no icache refill, no
    window spill/fill); the worst case charges every memory access a
    full line fill, every load the maximal interlock, every
    instruction fetch an icache miss, and every register-window
    crossing a trap — each priced from the configuration's own latency
    model (multiplier/divider options, barrel-shifter stalls, line
    geometry, ...).  Deterministic stalls (multiply, divide, shift,
    ICC hold on compare-and-branch, slow decode/jump) are exact and
    charged on both sides.

    Soundness caveat (inherited from {!Minic.Bounds}): bounds describe
    trap-free runs.  All registry programs and the fuzz generator's
    programs are trap-free by construction; a run that divides by zero
    stops early and may undershoot the lower bound. *)

type cycle_model = Sim.Cost_model.t = {
  iline_fill : int;  (** icache line-fill penalty, cycles *)
  dline_fill : int;  (** dcache line-fill penalty, cycles *)
  load_extra : int;  (** dcache hit latency beyond 1 cycle *)
  store_extra : int;  (** write-through cost beyond 1 cycle *)
  interlock : int;  (** load-delay interlock cycles ([load_delay - 1]) *)
  shift_stall : int;  (** extra cycles per shift (no barrel shifter) *)
  mul_stall : int;
  div_stall : int;
  icc_stall : int;  (** 1 when the ICC-hold interlock is configured *)
  decode_extra : int;  (** per control transfer when fast decode is off *)
  jump_extra : int;  (** per call/return when fast jump is off *)
  nwin : int;  (** register windows *)
}
(** The shared per-target cost table, {!Sim.Cost_model.t}: the exact
    same record {!Sim.Cpu.create} pre-decodes and executes against.
    Every class is priced with {!Sim.Cost_model}'s price functions, so
    the simulator and the bounds cannot drift apart. *)

val of_arch_config : ?shift_stall:int -> Arch.Config.t -> cycle_model
(** [Sim.Cost_model.of_arch_config]: [shift_stall] defaults to 0 (a
    barrel shifter), matching {!Sim.Cpu.create}. *)

val cycles :
  cycle_model -> Minic.Bounds.program_summary -> float * float
(** Sound [lo, hi] cycle bounds for {e one} complete run.  [hi] is
    [infinity] when the program has a loop the analysis cannot
    bound. *)

val seconds : cycle_model -> reps:int -> Minic.Bounds.program_summary -> float * float
(** Runtime bounds for [reps] runs at the nominal clock
    ({!Sim.Machine.clock_hz}): every epoch, cold or warm, lies within
    the per-run cycle bounds. *)

val summary_of_app : Apps.Registry.t -> Minic.Bounds.program_summary
(** The app's instruction-mix summary (compiled exactly as
    {!Apps.Registry} does, at optimization level 0), memoized
    process-wide by app name for the eight most recently computed
    applications. *)

val app_bounds : cycle_model -> Apps.Registry.t -> float * float
(** [seconds] bounds of the app's full [reps]-scaled run — the unit
    {!Cost.t.seconds} is in, so directly comparable to engine
    results. *)

val tightness : lo:float -> hi:float -> float option
(** [hi / lo] — the bound-tightness ratio (1.0 = exact); [None] when
    undefined ([lo = 0] or [hi] infinite). *)

(** {2 Metrics}

    Registered process-wide; incremented by the engine's
    bounds-admission path and the optimizer's sanitizer. *)

val m_computed : Obs.Metrics.Counter.t
(** [dse.bounds.computed] *)

val m_pruned : Obs.Metrics.Counter.t
(** [dse.bounds.pruned] *)

val m_violations : Obs.Metrics.Counter.t
(** [dse.bounds.violations] — simulated cycles observed outside the
    static bounds (an analysis or simulator bug; see the optimizer's
    verify-phase sanitizer in {!Stack} and the fuzz oracles). *)

(** In-order LEON2-style processor core.

    Executes {!Isa} programs with cycle accounting driven by the
    microarchitecture configuration: instruction/data cache hits and
    line fills, load-delay interlocks, ICC-hold stalls, jump and
    branch redirect penalties, multiplier/divider latencies and
    register-window overflow/underflow traps (which spill/fill through
    the data cache, as on real SPARC systems).  Dcache fast read/write
    are modeled as area-only options: they shorten combinational paths
    (a clock-frequency effect) and leave CPI unchanged, which is why
    the paper's optimizer never selects them.

    Execution is decode-once, execute-many: {!create} pre-decodes the
    program ({!Decode}) and compiles every static instruction into a
    direct-threaded execute handler, with each deterministic stall
    pre-priced from the shared {!Cost_model} table — the same table
    [Dse.Bounds] prices the static cycle bounds from.

    Registers hold 32-bit values represented as OCaml ints in
    [0, 0xFFFFFFFF]. *)

type t

exception Error of string
(** Raised on malformed execution: bad program counter, division by
    zero, memory faults, or exceeding the step budget. *)

val create :
  ?shift_stall:int ->
  ?recorder:Recording.recorder ->
  Arch.Config.t ->
  Isa.Program.t ->
  mem_size:int ->
  t
(** Builds a machine, loads the program's data image and points the
    stack pointer at the top of memory.  [shift_stall] (default 0)
    charges that many extra cycles on every shift instruction — cores
    without a barrel shifter (e.g. the MicroBlaze-like target) iterate
    shifts instead of resolving them in one cycle.  With [recorder],
    execution feeds it the reference stream (fetch redirects, loads,
    stores, window spills and fills), and {!run} marks its windows,
    until {!stop_recording}.
    @raise Invalid_argument if the configuration is invalid.
    @raise Error if the data image and the stack do not fit in
    [mem_size]. *)

val reinit : t -> unit
(** Reset architectural state (registers, pc, icc, window state) and
    reload the data image, but keep cache contents warm.  Used to model
    repeated executions of the same application. *)

val reconfigure :
  ?shift_stall:int -> ?keep_caches:bool -> t -> Arch.Config.t -> unit
(** Swap the microarchitecture under a live execution: rebuild the cost
    model and re-compile the handlers for [config], leaving all
    architectural state (registers, memory, pc, window state, condition
    codes) untouched.  A cache whose geometry is unchanged keeps its
    contents when [keep_caches] is set (default false) — modelling
    partial reconfiguration that leaves that region's block RAM intact;
    any other cache restarts cold with its standard deterministic seed.
    @raise Invalid_argument if [config] is invalid or changes the
    register-window count, which holds live architectural state, or
    if the machine is recording. *)

val step : t -> bool
(** Execute one instruction; [false] once halted.
    @raise Error on malformed execution, memory faults included. *)

val run : ?max_insns:int -> t -> unit
(** Run to [Halt].  A recording machine calls {!Recording.mark} each
    time the retired-instruction count reaches a multiple of the
    recorder's window before the halt.
    @raise Error if the budget (default 2e8) runs out, or on malformed
    execution, memory faults included. *)

val run_until : t -> insns:int -> unit
(** Run until the profiler's total retired-instruction count reaches
    [insns] (each step retires exactly one instruction), or the program
    halts, whichever comes first.
    @raise Error on malformed execution, memory faults included. *)

val profile : t -> Profiler.t
val reset_profile : t -> unit
val result : t -> int
(** Value of %o0 in the current window — by convention the program's
    checksum at [Halt]. *)

val stop_recording : t -> unit
(** Seal the recorder, if any, at the current pc with the current
    profile, and go back to the plain handlers. *)

val read_reg : t -> Isa.Reg.t -> int
val write_reg : t -> Isa.Reg.t -> int -> unit
val pc : t -> int
val halted : t -> bool
val mem : t -> Memory.t
val program : t -> Isa.Program.t
val icache : t -> Cache.t
val dcache : t -> Cache.t

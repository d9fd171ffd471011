(** Record once, replay the caches.

    A cache configuration changes only the hit/miss sequence over an
    execution's references, never the references themselves: the
    instruction and address stream depends on the program and the
    register-window count alone.  So one recorded execution serves
    every cache shape through the caches alone.

    A recording holds the cold epoch's references, cut into {e windows}
    of a fixed number of retired instructions, and the cold epoch's
    simulated profile of each window.  It keeps only the references
    that can miss or change cache state in some valid geometry, in four
    streams: fetched lines and data references (loads, stores, window
    fills and spills) for each cache side, at each valid line size (16
    and 32 bytes).  Every valid way holds at least 1 KB, so a line's
    {e class}, [line mod (1024 / line_bytes)], is coarser than every
    valid geometry's set index.  A reference is dropped when, since the
    last window mark, the last reference to its class was a load or
    fill of the same line (or a store dropped by this rule): it is a
    hit in every such geometry that changes no cache state.  A kept
    store forgets its class, since without write allocation whether
    its line is resident differs between geometries, and every window
    mark forgets them all, so a switch to a cold cache at a mark stays
    exact.  Each stream records its position at every window mark.

    Every later execution of the program executes the same stream
    ({!Cpu.reinit} restores registers, windows, pc and memory), so the
    warm epoch is the cold one's stream again, with only the cache
    state differing.  {!replay} drives a fresh cache ({!Cache.fresh},
    the simulator's own constructor and seeds) through the stream of
    its side and line size for the cold epoch and, when the run had
    more than one repetition, the warm epoch, counting the misses of
    every window.  {!segments} puts those counts into the recorded
    window profiles: the result is exactly the profile that simulating
    the same execution with that cache would report, before
    {!Cost_model.price} re-derives its cycles.  A segment is any union
    of consecutive windows, so one replay per cache geometry serves
    whole-run and per-segment answers alike.  A geometry with ways
    under 1 KB or lines other than 16 or 32 bytes is outside the
    recorded classes, and {!replay} refuses it. *)

(** {2 Recording}

    The simulator side: {!Machine.run} asks for a recorder when it
    starts a run, and {!Cpu} feeds it. *)

type recorder

val start : entry:int -> recorder option
(** A recorder for the run starting at instruction [entry], when a
    {!capture} on this domain still waits for its run; [None]
    otherwise. *)

val window : recorder -> int
(** Retired instructions per window: {!Cpu.run} calls {!mark} each
    time the count reaches a multiple of it. *)

val jump : recorder -> from:int -> target:int -> unit
(** Instruction [from] moved the pc to [target], which is not
    [from + 1]. *)

val load : recorder -> int -> unit
(** A program load of this byte address. *)

val store : recorder -> int -> unit
(** A program store. *)

val fill : recorder -> int -> unit
(** One load of a window-underflow fill. *)

val spill : recorder -> int -> unit
(** One store of a window-overflow spill. *)

val mark : recorder -> pc:int -> profile:Profiler.t -> unit
(** A window ends before instruction [pc], the next to execute;
    [profile] is the run's cumulative profile there. *)

val seal : recorder -> pc:int -> profile:Profiler.t -> unit
(** The cold epoch ended; [pc] is the instruction after the last one
    executed and [profile] the epoch's whole profile.  Nothing is
    recorded after this. *)

type t
(** A finished recording. *)

val deposit :
  recorder ->
  reps:int ->
  checksum:int ->
  icache:Arch.Config.cache ->
  dcache:Arch.Config.cache ->
  t
(** Finish the recording of a run of [reps] repetitions on these
    caches and hand it to the waiting {!capture}.  When [reps > 1] the
    two caches are replayed here ({!own}), and their cold epoch must
    reproduce the simulated misses of every window.
    @raise Failure if it does not. *)

val capture : ?window:int -> (unit -> 'a) -> 'a * t
(** [capture f] runs [f] and returns its result with the recording of
    the first {!Machine.run} that [f] makes on this domain, marked
    every [window] retired instructions (default: never, one window).
    Only that run is recorded; [f]'s own results are untouched.
    @raise Invalid_argument if [window < 1].
    @raise Failure if [f] made no such run. *)

val reps : t -> int
val checksum : t -> int
(** The recorded run's result (%o0 at halt). *)

val profile : t -> Profiler.t
(** The recorded run's cold-epoch profile. *)

val serves : t -> window:int -> bool
(** Whether every multiple of [window] inside the execution is a
    window mark: [window] is a multiple of the recording's, or covers
    the whole execution.  Then every boundary at a multiple of
    [window] can split a segment. *)

val window_starts : t -> window:int -> int list
(** The multiples of [window] inside the execution: the boundaries of
    its windows of [window] retired instructions, the last one
    possibly shorter. *)

(** {2 Replay} *)

type replay
(** One cache's misses over a recording: per epoch and window, read
    misses (fetch misses on the icache side) and write misses. *)

type action =
  | Keep  (** the cache keeps its contents *)
  | Fresh of Arch.Config.cache  (** a cold cache of this geometry *)

val replay :
  ?switches:(int * action) list ->
  ?wrap:action ->
  t ->
  Cache.side ->
  Arch.Config.cache ->
  replay
(** Drive a fresh cache of this side and geometry through the side's
    stream: the cold epoch, then the warm one when [reps t > 1].
    [switches] are the reconfigurations of a phased run, at window
    marks in retired instructions, taken in both epochs, and [wrap]
    the one at the warm epoch's start; each also forgets the most
    recently used line, as {!Cpu.reconfigure} does.  Each window is
    walked in the stream of the line size installed during it.
    Counted by [sim.replays], the references walked by
    [sim.replay.refs], under a [sim.replay] span.
    @raise Invalid_argument if a switch is not at a window mark inside
    the execution, or if a geometry has ways under 1 KB or lines other
    than 16 or 32 bytes. *)

val own : t -> replay * replay
(** The icache and dcache replays of the recorded run's own caches,
    made by {!deposit}. *)

val segments :
  t ->
  icache:replay ->
  dcache:replay ->
  epoch:int ->
  boundaries:int list ->
  Profiler.t list
(** Per segment [[0, b1)], [[b1, b2)], ..., [[bn, end)], the profile
    of epoch [epoch] (0 cold, 1 warm): the recorded cold event counts
    with the two replays' misses of that epoch.  Its cycles are the
    recorded cold epoch's: {!Cost_model.price} re-derives them.
    @raise Invalid_argument if a boundary is not a window mark, or the
    replays are of the wrong sides or epochs. *)

val profiles :
  t -> icache:replay -> dcache:replay -> boundaries:int list -> Profiler.t list
(** Per segment, the reps-scaled profile: cold plus [reps - 1] warm
    {!segments}, to be priced the same way. *)

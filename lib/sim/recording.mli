(** Record once, replay the caches.

    A cache configuration changes only the hit/miss sequence over an
    execution's references, never the references themselves: the
    instruction and address stream depends on the program and the
    register-window count alone.  So one recorded execution serves
    every cache shape through the caches alone.

    A recording holds the cold epoch's reference stream and the
    recorded run's cold and warm profiles.  The stream has three parts:
    - the sequential fetch runs, in 16-byte blocks;
    - program loads and stores, and window-trap fills and spills, with
      their byte addresses;
    - the positions of the run's segment boundaries, if any.

    {!replay} drives a fresh cache ({!Cache.fresh}, the simulator's own
    constructor and seeds) through it and counts the misses per epoch
    and segment.  {!profiles} puts those counts into the recorded
    profiles.  The result is exactly the profile that simulating the
    same execution with that cache would report, before
    {!Cost_model.price} re-derives its cycles. *)

(** {2 Recording}

    The simulator side: {!Machine} asks for a recorder when it starts
    a run, and {!Cpu} feeds it. *)

type recorder

val start : entry:int -> recorder option
(** A recorder for the run starting at instruction [entry], when a
    {!capture} on this domain still waits for its run; [None]
    otherwise. *)

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

val boundary : recorder -> pc:int -> unit
(** A segment boundary before instruction [pc], the next to execute. *)

val seal : recorder -> pc:int -> unit
(** The cold epoch ended; [pc] is the instruction after the last one
    executed.  Nothing is recorded after this. *)

type t
(** A finished recording. *)

val deposit :
  recorder ->
  reps:int ->
  profile:Profiler.t ->
  cold:Profiler.t list ->
  warm:Profiler.t list ->
  unit
(** Hand the recording to the waiting {!capture}.  [cold] and [warm]
    hold the run's per-segment profiles for each epoch ([warm] is
    empty when [reps = 1]); [profile] is its reps-scaled whole
    profile. *)

val capture : (unit -> 'a) -> 'a * t
(** [capture f] runs [f] and returns its result with the recording of
    the first {!Machine.run} or {!Machine.run_phased} that [f] makes
    on this domain.  Only that run is recorded, and its switches must
    change nothing.  [f]'s own results are untouched.
    @raise Failure if [f] made no such run. *)

val profile : t -> Profiler.t
(** The recorded run's reps-scaled whole profile. *)

val loads : t -> int array
(** Byte addresses of the program loads, in order (window fills
    excluded). *)

(** {2 Replay} *)

type replay
(** One cache's misses over a recording: per epoch and segment, read
    misses (fetch misses on the icache side) and write misses. *)

val replay : t -> Cache.side -> Arch.Config.cache -> replay
(** Drive a fresh cache of this side and geometry through the side's
    stream: the cold epoch, then the warm one when [reps t > 1].
    Counted by [sim.replays], under a [sim.replay] span. *)

val profiles : t -> icache:replay -> dcache:replay -> Profiler.t list
(** Per segment, the recorded run's reps-scaled profile with the
    icache misses, dcache read misses and dcache write misses of the
    two replays.  A whole run has one segment.
    @raise Invalid_argument if a replay is of the wrong side. *)

(** Set-associative cache model (tags only — data lives in {!Memory}).

    Geometry follows LEON terminology: [ways] parallel ways
    (LEON "sets", 1..4), each way of [way_kb] kilobytes with lines of
    [line_words] 32-bit words.  All ways are indexed identically by the
    line-index bits of the address.

    The model is write-through with no write-allocate, like the LEON2
    data cache: a write hit updates the line (a no-op in a tags-only
    model), a write miss does not allocate. *)

type t

type stats = {
  mutable reads : int;
  mutable read_misses : int;
  mutable writes : int;
  mutable write_misses : int;
}

val create :
  ways:int ->
  way_kb:int ->
  line_words:int ->
  replacement:Arch.Config.replacement ->
  rng:Rng.t ->
  t

type side = Instruction | Data

val fresh : side -> Arch.Config.cache -> t
(** A cold cache of the given geometry with its side's fixed
    replacement seed: the one constructor of the simulator's caches
    ({!Cpu.create}, {!Cpu.reconfigure} and {!Recording}'s replays), so
    a geometry replays exactly as it simulates. *)

val read : t -> int -> bool
(** [read t addr] probes and updates the cache for a read of [addr];
    returns [true] on hit.  A miss fills the line. *)

val write : t -> int -> bool
(** Write probe: [true] on hit.  Misses do not allocate. *)

val stats : t -> stats
val reset_stats : t -> unit
val clear : t -> unit
(** Invalidate all lines and reset replacement state and stats. *)

val line_bytes : t -> int

val line_shift : t -> int
(** [log2 (line_bytes t)]. *)

val sets : t -> int
(** Number of line indices per way. *)

(** The unified per-class cost table.

    One configuration's derived cycle prices, computed once from an
    {!Arch.Config.t} and consumed by {e both} sides of the timing
    contract:

    - {!Cpu} prices pre-decoded instructions with it (deterministic
      stalls folded into per-instruction base cycles, dynamic costs —
      line fills, interlocks, window traps — charged from the same
      fields at run time);
    - [Dse.Bounds] prices {!Minic.Bounds} instruction-mix intervals
      with the per-class functions below;
    - {!price} prices a run's event counts with the same functions.

    Stall pricing must live here and only here: a class priced in two
    places can silently drift, which is precisely the bug class the
    bounds fuzz oracles exist to catch. *)

type t = {
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

val of_arch_config : ?shift_stall:int -> Arch.Config.t -> t
(** [shift_stall] defaults to 0 (a barrel shifter). *)

val trap_overhead : int
(** Fixed window-trap entry/exit cost, cycles. *)

val window_regs : int
(** Registers moved by one spill or fill (16 locals+ins). *)

(** {2 Per-class prices}

    Best-case ("hit") prices assume cache hits and no optional stall;
    [_worst] variants add a full line fill and, for loads, the maximal
    interlock.  Deterministic stalls (shift/mul/div latencies, ICC
    hold on a compare-and-branch, slow decode/jump, the +1 of a taken
    branch) are exact. *)

val alu_cycles : t -> int
val shift_cycles : t -> int
val mul_cycles : t -> int
val div_cycles : t -> int
val load_hit_cycles : t -> int
val load_worst_cycles : t -> int
val store_cycles : t -> int
val branch_cycles : t -> int
(** An untaken conditional branch (fast/slow decode included). *)

val taken_extra : t -> int
(** Redirect cost added on top of [branch_cycles] when taken. *)

val ba_cycles : t -> int
val cbr_cmp_cycles : t -> int
(** A conditional branch immediately consuming fresh condition codes:
    [branch_cycles] plus the ICC-hold stall. *)

val jump_cycles : t -> int
(** CALL/JMPL: redirect plus decode/jump stalls. *)

val save_cycles : t -> int
val restore_cycles : t -> int
val halt_cycles : t -> int

val spill_worst : t -> int
(** Worst-case window-overflow trap (every store through the cache). *)

val fill_worst : t -> int
(** Worst-case window-underflow trap (every load a line miss). *)

(** {2 Pricing a run} *)

val price : t -> Profiler.t -> Profiler.t
(** [price t p] is the profile a configuration whose table is [t]
    produces, given the profile [p] of a run of a configuration that
    differs from it only in stall prices ([interlock], [shift_stall],
    [mul_stall], [div_stall], [icc_stall], [decode_extra],
    [jump_extra]), or also in the window count when neither run takes
    a window trap — or the profile {!Recording.profiles} replays for
    that configuration's caches, which equals it.  Event counts are
    [p]'s; [cycles] is re-derived
    class by class from the per-class prices above, [load_interlocks]
    is [load_uses] when [t] interlocks (else 0) and [icc_hold_stalls]
    is [icc_waits] when [t] holds (else 0).  Exact: it equals that
    configuration's own simulation field for field, reps-scaled
    profiles included, since every term is linear in the counts. *)

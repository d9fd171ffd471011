(** Cycle-accurate execution statistics.

    This plays the role of the Liquid Architecture platform's
    hardware-based, non-intrusive statistics module: it observes the
    processor and counts cycles and events without perturbing the
    execution. *)

(** Every count but [cycles], [load_interlocks] and [icc_hold_stalls]
    is independent of the {!Cost_model} stall prices: configurations
    that differ only in those prices replay the same events, and
    {!Cost_model.price} derives the three price-dependent fields from
    the others. *)
type t = {
  mutable cycles : int;
  mutable instructions : int;
  mutable icache_misses : int;
  mutable dcache_reads : int;
  mutable dcache_read_misses : int;
  mutable dcache_writes : int;
  mutable dcache_write_misses : int;
  mutable branches : int;
  mutable taken_branches : int;
  mutable mults : int;
  mutable divs : int;
  mutable window_overflows : int;
  mutable window_underflows : int;
  mutable load_interlocks : int;  (** load uses that stalled *)
  mutable icc_hold_stalls : int;  (** ICC waits that stalled *)
  mutable shifts : int;  (** shift instructions *)
  mutable jumps : int;  (** CALL and JMPL transfers *)
  mutable load_uses : int;
      (** loads whose textually next instruction reads the loaded
          register: the load-delay interlock candidates *)
  mutable icc_waits : int;
      (** conditional branches right after a condition-code write: the
          ICC-hold candidates *)
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val add : t -> t -> t
(** Component-wise sum (for combining epochs). *)

val sub : t -> t -> t
(** Component-wise difference: [sub after before] is the delta
    accumulated between two snapshots of the same execution. *)

val scale_add : t -> warm:t -> reps:int -> t
(** [scale_add cold ~warm ~reps] models [reps] executions: one cold run
    plus [reps - 1] repetitions of the warm (steady-state) run. *)

val to_assoc : t -> (string * int) list
(** Every counter as a [(name, value)] row, in declaration order. *)

val pack : Buffer.t -> t -> unit
(** Append a compact encoding of every counter (a varint each, a few
    bytes instead of a word): how long-lived stores hold profiles. *)

val unpack : string -> pos:int -> t
(** The profile {!pack} encoded at [pos]; [unpack s ~pos] after
    appending [p] at [pos] of [s] equals [p].
    @raise Invalid_argument if [s] ends first. *)

val to_json : t -> Obs.Json.t

val invariants : t -> (string * bool) list
(** Named structural invariants of a profile (misses bounded by
    accesses, [instructions <= cycles], stalls fit in cycles, each
    stall bounded by its candidates, ...); each paired with whether it
    holds. *)

val check : t -> (unit, string) result
(** [Error] lists the violated {!invariants}. *)

val pp : t Fmt.t

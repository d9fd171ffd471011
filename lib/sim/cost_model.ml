(* The single per-target cost table: every per-class cycle price the
   simulator charges dynamically and the static bounds charge
   symbolically is derived here, once, from an {!Arch.Config.t}.

   {!Cpu} consumes the table when pre-decoding a program (deterministic
   stalls are folded into each instruction's base cycles) and at run
   time (line fills, interlocks, window traps); {!Dse.Bounds} consumes
   the same table to price {!Minic.Bounds} instruction-mix intervals.
   Neither re-derives a stall from the configuration on its own — that
   duplication is exactly the drift hazard this module removes. *)

type t = {
  iline_fill : int;
  dline_fill : int;
  load_extra : int;
  store_extra : int;
  interlock : int;
  shift_stall : int;
  mul_stall : int;
  div_stall : int;
  icc_stall : int;
  decode_extra : int;
  jump_extra : int;
  nwin : int;
}

(* Window-trap plumbing: a fixed 6-cycle trap entry/exit plus a
   16-register burst (stores for a spill, loads for a fill) through the
   data cache, as on real SPARC overflow/underflow handlers. *)
let trap_overhead = 6
let window_regs = 16

let of_arch_config ?(shift_stall = 0) (c : Arch.Config.t) =
  let iu = c.Arch.Config.iu in
  {
    iline_fill =
      Memory.line_fill_cycles
        ~line_words:c.Arch.Config.icache.Arch.Config.line_words;
    dline_fill =
      Memory.line_fill_cycles
        ~line_words:c.Arch.Config.dcache.Arch.Config.line_words;
    (* Fast read/write shorten LEON's combinational cache paths; at our
       fixed clock they change area, not CPI. *)
    load_extra = 1;
    store_extra = 1;
    interlock = iu.Arch.Config.load_delay - 1;
    shift_stall;
    mul_stall = Funit.mul_latency iu.Arch.Config.multiplier - 1;
    div_stall = Funit.div_latency iu.Arch.Config.divider - 1;
    icc_stall = (if iu.Arch.Config.icc_hold then 1 else 0);
    decode_extra = (if iu.Arch.Config.fast_decode then 0 else 1);
    jump_extra = (if iu.Arch.Config.fast_jump then 0 else 1);
    nwin = iu.Arch.Config.reg_windows;
  }

(* Per-class prices.  "Hit" prices assume every access hits the caches
   and no optional stall fires; the [_worst] variants add a full line
   fill (and, for loads, the maximal load-delay interlock). *)

let alu_cycles _ = 1
let shift_cycles t = 1 + t.shift_stall
let mul_cycles t = 1 + t.mul_stall
let div_cycles t = 1 + t.div_stall
let load_hit_cycles t = 1 + t.load_extra
let load_worst_cycles t = load_hit_cycles t + t.dline_fill + t.interlock

(* Write-through: a store's cost does not depend on hit/miss at all. *)
let store_cycles t = 1 + t.store_extra
let branch_cycles t = 1 + t.decode_extra
let taken_extra _ = 1
let ba_cycles t = branch_cycles t + taken_extra t
let cbr_cmp_cycles t = branch_cycles t + t.icc_stall
let jump_cycles t = 2 + t.decode_extra + t.jump_extra
let save_cycles _ = 1
let restore_cycles _ = 1
let halt_cycles _ = 1

(* Worst-case window traps: every spilled register a write-through
   store, every filled register a potential line miss. *)
let spill_worst t = trap_overhead + (window_regs * store_cycles t)
let fill_worst t = trap_overhead + (window_regs * (load_hit_cycles t + t.dline_fill))

(* Pricing: the profile a configuration priced by [t] produces from the
   event stream of [p], a run of a configuration of the same shape (the
   same caches and, when it traps, the same window count).  Every event
   count is the run's; cycles are re-derived class by class from the
   prices above, and the two stall counts fire on their candidates only
   when their price is non-zero.  Instructions outside the priced
   classes (plain ALU, sethi, nop, save, restore, halt) cost one cycle
   each; every spill is its worst case (stores never miss-stall) and
   every fill its hit price plus the line fills already counted in the
   read misses. *)
let price t (p : Profiler.t) =
  let spills = p.Profiler.window_overflows
  and fills = p.Profiler.window_underflows in
  let loads = p.Profiler.dcache_reads - (window_regs * fills) in
  let stores = p.Profiler.dcache_writes - (window_regs * spills) in
  let others =
    p.Profiler.instructions - p.Profiler.shifts - p.Profiler.mults
    - p.Profiler.divs - loads - stores - p.Profiler.branches
    - p.Profiler.jumps
  in
  let cycles =
    (others * alu_cycles t)
    + (p.Profiler.shifts * shift_cycles t)
    + (p.Profiler.mults * mul_cycles t)
    + (p.Profiler.divs * div_cycles t)
    + (loads * load_hit_cycles t)
    + (stores * store_cycles t)
    + (p.Profiler.branches * branch_cycles t)
    + (p.Profiler.taken_branches * taken_extra t)
    + (p.Profiler.jumps * jump_cycles t)
    + (p.Profiler.icc_waits * t.icc_stall)
    + (p.Profiler.load_uses * t.interlock)
    + (p.Profiler.icache_misses * t.iline_fill)
    + (p.Profiler.dcache_read_misses * t.dline_fill)
    + (spills * spill_worst t)
    + (fills * (trap_overhead + (window_regs * load_hit_cycles t)))
  in
  {
    p with
    Profiler.cycles;
    load_interlocks = (if t.interlock > 0 then p.Profiler.load_uses else 0);
    icc_hold_stalls = (if t.icc_stall > 0 then p.Profiler.icc_waits else 0);
  }

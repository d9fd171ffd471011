(* Pricing {!Minic.Bounds} instruction-mix intervals for one concrete
   microarchitecture configuration.

   Every per-class price comes from {!Sim.Cost_model} — the same table
   {!Sim.Cpu} executes against — so the simulator and the static
   bounds cannot drift apart:

   - every instruction costs its class's exact base price, with all
     deterministic stalls (shift without a barrel shifter, multiply,
     divide, the ICC-hold interlock on a compare-and-branch, slow
     decode on control transfers, slow jump on call/return, the +1 of
     a taken branch) identical in both bounds;
   - a load hits in the best case and pays a full line fill plus the
     maximal load-delay interlock in the worst;
   - a store's write-through cost does not depend on hit/miss at all;
   - instruction fetches are all hits in the best case and all misses
     in the worst;
   - window spills/fills never fire in the best case (and provably
     never fire when the maximal call depth fits the window file), and
     every save/restore traps in the worst. *)

let m_computed =
  Obs.Metrics.Counter.v "dse.bounds.computed"
    ~help:"static cycle-bound computations"

let m_pruned =
  Obs.Metrics.Counter.v "dse.bounds.pruned"
    ~help:"simulations skipped because a static lower bound exceeded the cutoff"

let m_violations =
  Obs.Metrics.Counter.v "dse.bounds.violations"
    ~help:"simulated runtimes observed outside their static bounds"

type cycle_model = Sim.Cost_model.t = {
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

let of_arch_config = Sim.Cost_model.of_arch_config

let cycles (cm : cycle_model) (s : Minic.Bounds.program_summary) =
  let m = s.Minic.Bounds.mix in
  (* A save at call depth d runs with 1 + d resident windows and
     spills iff 1 + d = nwin - 1; with the deepest chain at most
     nwin - 3 the window file never overflows (and, spills being the
     only way to empty it, never underflows either). *)
  let spill_free =
    match s.Minic.Bounds.call_depth with
    | Some d -> d <= cm.nwin - 3
    | None -> false
  in
  let spill_hi = if spill_free then 0 else Sim.Cost_model.spill_worst cm in
  let fill_hi = if spill_free then 0 else Sim.Cost_model.fill_worst cm in
  let lo_acc = ref 0.0 and hi_acc = ref 0.0 in
  let charge (c : Minic.Bounds.cnt) ~lo ~hi =
    lo_acc := !lo_acc +. (float_of_int c.Minic.Bounds.lo *. float_of_int lo);
    hi_acc :=
      !hi_acc
      +.
      if c.Minic.Bounds.hi = Minic.Bounds.unbounded then
        if hi = 0 then 0.0 else infinity
      else float_of_int c.Minic.Bounds.hi *. float_of_int hi
  in
  let exact c cost = charge c ~lo:cost ~hi:cost in
  exact m.Minic.Bounds.alu (Sim.Cost_model.alu_cycles cm);
  exact m.Minic.Bounds.shift (Sim.Cost_model.shift_cycles cm);
  exact m.Minic.Bounds.mul (Sim.Cost_model.mul_cycles cm);
  exact m.Minic.Bounds.div (Sim.Cost_model.div_cycles cm);
  charge m.Minic.Bounds.load
    ~lo:(Sim.Cost_model.load_hit_cycles cm)
    ~hi:(Sim.Cost_model.load_worst_cycles cm);
  exact m.Minic.Bounds.store (Sim.Cost_model.store_cycles cm);
  exact m.Minic.Bounds.cbr_cmp (Sim.Cost_model.cbr_cmp_cycles cm);
  exact m.Minic.Bounds.cbr_mat (Sim.Cost_model.branch_cycles cm);
  exact m.Minic.Bounds.taken (Sim.Cost_model.taken_extra cm);
  exact m.Minic.Bounds.ba (Sim.Cost_model.ba_cycles cm);
  exact m.Minic.Bounds.call (Sim.Cost_model.jump_cycles cm);
  exact m.Minic.Bounds.jmpl (Sim.Cost_model.jump_cycles cm);
  charge m.Minic.Bounds.save ~lo:(Sim.Cost_model.save_cycles cm)
    ~hi:(Sim.Cost_model.save_cycles cm + spill_hi);
  charge m.Minic.Bounds.restore ~lo:(Sim.Cost_model.restore_cycles cm)
    ~hi:(Sim.Cost_model.restore_cycles cm + fill_hi);
  exact m.Minic.Bounds.halt (Sim.Cost_model.halt_cycles cm);
  (* Worst case: every fetch misses the instruction cache. *)
  let ins = Minic.Bounds.insns m in
  hi_acc :=
    !hi_acc
    +.
    if ins.Minic.Bounds.hi = Minic.Bounds.unbounded then infinity
    else float_of_int ins.Minic.Bounds.hi *. float_of_int cm.iline_fill;
  (!lo_acc, !hi_acc)

let seconds cm ~reps s =
  let lo, hi = cycles cm s in
  let r = float_of_int reps in
  (r *. lo /. Sim.Machine.clock_hz, r *. hi /. Sim.Machine.clock_hz)

(* Per-app summaries of the most recently computed applications, newest
   first: a stream of fresh applications must not keep one each
   forever, and a sweep alternating a few applications must always
   find them.  Summaries are deterministic, so a racy double
   computation is harmless; the lock only protects the list itself. *)
let memo_size = 8
let memo : (string * Minic.Bounds.program_summary) list ref = ref []
let memo_mutex = Mutex.create ()

let summary_of_app (app : Apps.Registry.t) =
  let name = app.Apps.Registry.name in
  Mutex.lock memo_mutex;
  let cached = List.assoc_opt name !memo in
  Mutex.unlock memo_mutex;
  match cached with
  | Some s -> s
  | None ->
      (* Level 0: {!Apps.Registry} compiles with [Codegen.compile]'s
         default (no optimization). *)
      let s = Minic.Bounds.summary app.Apps.Registry.source in
      Mutex.lock memo_mutex;
      memo :=
        (name, s)
        :: List.filteri (fun i _ -> i < memo_size - 1) (List.remove_assoc name !memo);
      Mutex.unlock memo_mutex;
      s

let app_bounds cm (app : Apps.Registry.t) =
  seconds cm ~reps:app.Apps.Registry.reps (summary_of_app app)

let tightness ~lo ~hi =
  if lo > 0.0 && hi < infinity then Some (hi /. lo) else None

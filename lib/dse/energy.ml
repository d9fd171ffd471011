open Leon2.S

type measurement = {
  seconds : float;
  millijoules : float;
  average_milliwatts : float;
  cost : Cost.t;
}

(* Static power: leakage plus clock-tree load of the occupied fabric. *)
let static_milliwatts_of (r : Synth.Resource.t) =
  20.0
  +. (0.002 *. float_of_int r.Synth.Resource.luts)
  +. (0.05 *. float_of_int r.Synth.Resource.brams)

let static_milliwatts config = static_milliwatts_of (Synth.Estimate.config config)

let log2f n = log (float_of_int n) /. log 2.0

(* Per-event dynamic energies in nanojoules. *)
let cache_access_nj (c : Arch.Config.cache) =
  0.25 +. (0.08 *. float_of_int c.ways) +. (0.04 *. log2f (c.way_kb * 1024))

let line_fill_nj (c : Arch.Config.cache) =
  6.0 +. (0.8 *. float_of_int c.line_words)

let mult_nj = function
  | Arch.Config.Mul_none -> 12.0      (* software shift-add loop *)
  | Arch.Config.Mul_iterative -> 6.0  (* 35 cycles of a small adder *)
  | Arch.Config.Mul_16x16 -> 2.2
  | Arch.Config.Mul_16x16_pipe -> 2.3
  | Arch.Config.Mul_32x8 -> 2.8
  | Arch.Config.Mul_32x16 -> 3.6
  | Arch.Config.Mul_32x32 -> 4.8      (* one pass of a big array *)

let div_nj = function
  | Arch.Config.Div_radix2 -> 12.0
  | Arch.Config.Div_none -> 30.0      (* software long division *)

let dynamic_nanojoules_per_event (config : Arch.Config.t) (p : Sim.Profiler.t) =
  let f = float_of_int in
  (0.9 *. f p.Sim.Profiler.instructions)
  +. (cache_access_nj config.icache *. f p.Sim.Profiler.instructions)
  +. (cache_access_nj config.dcache
     *. f (p.Sim.Profiler.dcache_reads + p.Sim.Profiler.dcache_writes))
  +. (line_fill_nj config.icache *. f p.Sim.Profiler.icache_misses)
  +. (line_fill_nj config.dcache *. f p.Sim.Profiler.dcache_read_misses)
  +. (1.2 *. f p.Sim.Profiler.dcache_writes) (* write-through bus traffic *)
  +. (mult_nj config.iu.multiplier *. f p.Sim.Profiler.mults)
  +. (div_nj config.iu.divider *. f p.Sim.Profiler.divs)
  +. (0.3 *. f p.Sim.Profiler.taken_branches)

(* One memoized engine evaluation yields runtime, resources and the
   execution profile: the energy model charges its per-event costs
   without a second simulation or resource elaboration. *)
let measure app config =
  let cost, profile =
    Engine.eval_profiled_on (Engine.default ()) Target_leon2.probe app config
  in
  let seconds = cost.Cost.seconds in
  let dynamic_mj = dynamic_nanojoules_per_event config profile /. 1e6 in
  let static_mw = static_milliwatts_of cost.Cost.resources in
  let millijoules = (static_mw *. seconds) +. dynamic_mj in
  { seconds; millijoules; average_milliwatts = millijoules /. seconds; cost }

type weights = { w1 : float; w2 : float; w3 : float }

let energy_weights = { w1 = 1.0; w2 = 1.0; w3 = 100.0 }

type outcome = {
  base : measurement;
  selected : Arch.Param.var list;
  config : Arch.Config.t;
  actual : measurement;
  runtime_change_percent : float;
  energy_change_percent : float;
}

(* Marginal energy delta of one decision variable, in percent of the
   base energy, measured against the same reference Measure uses. *)
let epsilon app ~base (var : Arch.Param.var) =
  let reference = Measure.reference_config var in
  let ref_m =
    if Arch.Config.equal reference Arch.Config.base then base
    else measure app reference
  in
  let m = measure app (var.Arch.Param.apply reference) in
  100.0 *. (m.millijoules -. ref_m.millijoules) /. base.millijoules

(* The paper's problem with a third objective term: solver variable j
   is model row j, so the energy weight adds to [make]'s objective
   entry by entry. *)
let optimize ~weights app =
  let model = Measure.build app in
  let base = measure app Arch.Config.base in
  let eps =
    Array.of_list
      (List.map
         (fun (r : Measure.row) -> epsilon app ~base r.Measure.var)
         model.Measure.rows)
  in
  let problem =
    Formulate.make { Cost.w1 = weights.w1; w2 = weights.w2 } model
  in
  let objective =
    Array.mapi
      (fun j o -> o +. (weights.w3 *. eps.(j)))
      problem.Optim.Binlp.objective
  in
  let solution, _ = Stack.solve { problem with Optim.Binlp.objective } in
  let selected = Formulate.vars_of_solution model solution in
  let config = decode selected in
  let actual = measure app config in
  {
    base;
    selected;
    config;
    actual;
    runtime_change_percent =
      100.0 *. (actual.seconds -. base.seconds) /. base.seconds;
    energy_change_percent =
      100.0 *. (actual.millijoules -. base.millijoules) /. base.millijoules;
  }

let print_outcome ppf o =
  Format.fprintf ppf "  reconfigured: %s@."
    (String.concat ", "
       (List.map
          (fun (k, v) -> k ^ "=" ^ v)
          (Target_leon2.changed_params o.config)));
  Format.fprintf ppf
    "  base:   %.3f s, %.1f mJ (%.1f mW average)@." o.base.seconds
    o.base.millijoules o.base.average_milliwatts;
  Format.fprintf ppf
    "  tuned:  %.3f s, %.1f mJ (%.1f mW average)@." o.actual.seconds
    o.actual.millijoules o.actual.average_milliwatts;
  Format.fprintf ppf "  energy %+.2f%%, runtime %+.2f%%@."
    o.energy_change_percent o.runtime_change_percent

(* The shared evaluation engine: memoization bit-identity, batch
   evaluation vs the serial reference, in-flight/batch deduplication
   accounting, pricing and cache replays from recorded execution
   classes, per-segment measurement outside the memo, and the
   persistent work-stealing pool. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let probe = Dse.Target_leon2.probe
let config_of_seed seed = Dse.Target_leon2.random_config (Sim.Rng.create ~seed)

let delta before after name =
  Obs.Metrics.counter_value after name - Obs.Metrics.counter_value before name

(* --- Memoization --- *)

(* A warm evaluation must be bit-identical to its own cold run and to a
   cold run on an independent engine — with and without the
   deterministic measurement noise. *)
let memo_bit_identical_qtest =
  QCheck.Test.make ~count:20 ~name:"memoized eval bit-identical to cold run"
    QCheck.(make Gen.int)
    (fun seed ->
      let config = config_of_seed seed in
      let app = Apps.Registry.arith in
      List.for_all
        (fun noise ->
          let e1 = Dse.Engine.create () in
          let cold = Dse.Engine.eval_on ?noise e1 probe app config in
          let warm = Dse.Engine.eval_on ?noise e1 probe app config in
          let e2 = Dse.Engine.create () in
          let cold2 = Dse.Engine.eval_on ?noise e2 probe app config in
          compare cold warm = 0 && compare cold cold2 = 0)
        [ None; Some 0.005 ])

let test_memo_counts () =
  let app = Apps.Registry.arith in
  let config = config_of_seed 42 in
  let e = Dse.Engine.create () in
  let before = Obs.Metrics.snapshot () in
  let c1 = Dse.Engine.eval_on e probe app config in
  let mid = Obs.Metrics.snapshot () in
  let c2 = Dse.Engine.eval_on e probe app config in
  let after = Obs.Metrics.snapshot () in
  check_bool "identical cost" true (compare c1 c2 = 0);
  check_int "first eval misses" 1 (delta before mid "dse.engine.misses");
  check_int "first eval builds" 1 (delta before mid "dse.builds");
  check_int "second eval hits" 1 (delta mid after "dse.engine.hits");
  check_int "second eval builds nothing" 0 (delta mid after "dse.builds")

let test_noise_amplitudes_distinct_keys () =
  (* Differing amplitudes must not observe each other's measurements:
     noise-free LUTs differ from noised LUTs for this config. *)
  let app = Apps.Registry.arith in
  let e = Dse.Engine.create () in
  (* Find a seed whose config actually gets a non-zero perturbation. *)
  let rec find seed =
    if seed > 200 then Alcotest.fail "no noised config found"
    else
      let config = config_of_seed seed in
      let plain = Dse.Engine.eval_on e probe app config in
      let noised = Dse.Engine.eval_on ~noise:0.01 e probe app config in
      if
        plain.Dse.Cost.resources.Synth.Resource.luts
        <> noised.Dse.Cost.resources.Synth.Resource.luts
      then (plain, noised)
      else find (seed + 1)
  in
  let plain, noised = find 0 in
  check_bool "seconds agree (noise is resource-only)" true
    (plain.Dse.Cost.seconds = noised.Dse.Cost.seconds);
  check_bool "luts differ across amplitudes" true
    (plain.Dse.Cost.resources.Synth.Resource.luts
    <> noised.Dse.Cost.resources.Synth.Resource.luts)

let test_noise_magnitude_pinned () =
  (* Regression for the unit of [noise]: a fraction of the device
     (0.005 = ±0.5 % of its LUTs), as documented in engine.mli and on
     [Stack.Make]'s Measure.  The old code converted fraction → percent
     at the call site and percent → fraction inside [lut_noise]; the
     two conversions cancelled, so this pins the (unchanged) magnitude
     against the documented formula — any future one-sided edit that
     skews the unit by 100x fails here. *)
  let app = Apps.Registry.arith in
  let amplitude = 0.01 in
  let bound =
    int_of_float (amplitude *. float_of_int Synth.Device.luts) + 1
  in
  let expected_delta config =
    let h = Hashtbl.hash (config : Arch.Config.t) in
    let u = float_of_int (h land 0xFFFF) /. 65535.0 in
    int_of_float (amplitude *. ((2.0 *. u) -. 1.0) *. float_of_int Synth.Device.luts)
  in
  for seed = 0 to 20 do
    let config = config_of_seed seed in
    let e = Dse.Engine.create () in
    let plain = Dse.Engine.eval_on e probe app config in
    let noised = Dse.Engine.eval_on ~noise:amplitude e probe app config in
    let delta =
      noised.Dse.Cost.resources.Synth.Resource.luts
      - plain.Dse.Cost.resources.Synth.Resource.luts
    in
    check_int "noise delta matches documented fraction-of-device formula"
      (expected_delta config) delta;
    check_bool "noise delta within amplitude * device LUTs" true
      (abs delta <= bound)
  done

(* --- Feasibility path --- *)

let test_eval_feasible_matches_reference () =
  let app = Apps.Registry.arith in
  let e = Dse.Engine.create () in
  List.iter
    (fun config ->
      let got = Dse.Engine.eval_feasible_on e probe app config in
      if Synth.Estimate.feasible config then (
        let reference =
          Dse.Engine.eval_on (Dse.Engine.create ()) probe app config
        in
        match got with
        | Some c -> check_bool "feasible cost matches eval" true (compare c reference = 0)
        | None -> Alcotest.fail "feasible config reported infeasible")
      else check_bool "infeasible is None" true (got = None))
    (Arch.Space.dcache_geometry ())

let test_unfit_upgrade () =
  (* A cached over-capacity entry must upgrade to a full (simulated)
     entry when forcibly evaluated, without re-elaborating. *)
  let app = Apps.Registry.arith in
  let unfit =
    match
      List.find_opt
        (fun c -> Arch.Config.is_valid c && not (Synth.Estimate.feasible c))
        (Arch.Space.dcache_geometry ())
    with
    | Some c -> c
    | None -> Alcotest.fail "dcache geometry has no over-capacity point"
  in
  let e = Dse.Engine.create () in
  let before = Obs.Metrics.snapshot () in
  check_bool "feasible query is None" true
    (Dse.Engine.eval_feasible_on e probe app unfit = None);
  let mid = Obs.Metrics.snapshot () in
  check_int "no simulation for the unfit query" 0 (delta before mid "dse.builds");
  check_int "resource-only compute is a miss" 1
    (delta before mid "dse.engine.misses");
  let cost = Dse.Engine.eval_on e probe app unfit in
  let after = Obs.Metrics.snapshot () in
  check_int "forced eval simulates once" 1 (delta mid after "dse.builds");
  check_bool "over-capacity resources preserved" true
    (not (Synth.Resource.fits cost.Dse.Cost.resources));
  check_bool "now cached as infeasible-but-built" true
    (Dse.Engine.eval_feasible_on e probe app unfit = None);
  let last = Obs.Metrics.snapshot () in
  check_int "and that query was a hit" 1 (delta after last "dse.engine.hits")

(* --- Batch evaluation --- *)

let test_eval_all_matches_serial () =
  let app = Apps.Registry.arith in
  let configs = List.init 12 config_of_seed in
  let configs = configs @ List.rev configs in
  let pool = Dse.Pool.create ~workers:4 () in
  Fun.protect
    ~finally:(fun () -> Dse.Pool.shutdown pool)
    (fun () ->
      let pooled = Dse.Engine.create ~pool () in
      let batch = Dse.Engine.eval_all_feasible_on pooled probe app configs in
      let serial_engine = Dse.Engine.create () in
      let serial =
        List.map (Dse.Engine.eval_feasible_on serial_engine probe app) configs
      in
      check_int "lengths agree" (List.length serial) (List.length batch);
      List.iteri
        (fun i (b, s) ->
          check_bool (Printf.sprintf "batch item %d bit-identical" i) true
            (compare b s = 0))
        (List.combine batch serial);
      (* Seeds 9-11 exceed the device, the others fit: both paths are
         exercised. *)
      List.iteri
        (fun seed b ->
          check_bool
            (Printf.sprintf "seed %d fits iff below 9" seed)
            (seed < 9) (b <> None))
        (List.filteri (fun i _ -> i < 12) batch))

let test_eval_all_dedups_batch () =
  let app = Apps.Registry.arith in
  let config = config_of_seed 7 in
  let e = Dse.Engine.create () in
  let before = Obs.Metrics.snapshot () in
  let costs =
    Dse.Engine.eval_all_feasible_on e probe app (List.init 5 (fun _ -> config))
  in
  let after = Obs.Metrics.snapshot () in
  check_int "five results" 5 (List.length costs);
  check_bool "seed 7 fits" true (List.hd costs <> None);
  check_bool "all identical" true
    (List.for_all (fun c -> compare c (List.hd costs) = 0) costs);
  check_int "one build" 1 (delta before after "dse.builds");
  check_int "four deduplicated" 4
    (delta before after "dse.engine.inflight_dedup")

(* --- The fig2 sweep accounting: every feasible point is evaluated
   exactly once, all of them from one recording of blastn --- *)

let test_fig2_sweep_build_count () =
  let app = Apps.Registry.blastn in
  let engine = Dse.Engine.default () in
  Dse.Engine.clear engine;
  let before = Obs.Metrics.snapshot () in
  let points = Dse.Leon2.S.Exhaustive.geometry_sweep app in
  let mid = Obs.Metrics.snapshot () in
  let feasible =
    List.length
      (List.filter (fun p -> p.Dse.Leon2.S.Exhaustive.cost <> None) points)
  in
  check_int "28 geometry points" 28 (List.length points);
  check_int "19 feasible points" 19 feasible;
  check_int "one build: the first point claims the recording" 1
    (delta before mid "dse.builds");
  check_int "builds + priced = feasible points exactly" feasible
    (delta before mid "dse.builds" + delta before mid "dse.engine.priced");
  check_int "one simulation" 1 (delta before mid "sim.runs");
  check_int "every point computed once" 28 (delta before mid "dse.engine.misses");
  (* The same sweep again is pure cache. *)
  let again = Dse.Leon2.S.Exhaustive.geometry_sweep app in
  let after = Obs.Metrics.snapshot () in
  check_bool "identical points" true (compare points again = 0);
  check_int "no new builds" 0 (delta mid after "dse.builds");
  check_int "28 hits" 28 (delta mid after "dse.engine.hits")

(* --- Pricing --- *)

(* Single-parameter perturbations of [base] in price-only groups:
   every one shares [base]'s representative on a trap-free app. *)
let price_only_leon2 =
  List.filter_map
    (fun (v : Arch.Param.var) ->
      match v.Arch.Param.group with
      | Arch.Param.Fast_read | Arch.Param.Fast_write | Arch.Param.Fast_jump
      | Arch.Param.Icc_hold | Arch.Param.Fast_decode | Arch.Param.Load_delay
      | Arch.Param.Reg_windows | Arch.Param.Divider | Arch.Param.Multiplier
      | Arch.Param.Infer_mult_div ->
          Some (v.Arch.Param.apply Arch.Config.base)
      | _ -> None)
    Arch.Param.all

let price_only_microblaze =
  List.filter_map
    (fun (v : Arch.Mb_param.var) ->
      match v.Arch.Mb_param.group with
      | Arch.Mb_param.Barrel_shifter | Arch.Mb_param.Multiplier
      | Arch.Mb_param.Divider ->
          Some (v.Arch.Mb_param.apply Arch.Mb_config.base)
      | _ -> None)
    Arch.Mb_param.all

let priced_like_simulated (type c) (probe : c Dse.Target.probe) base
    (perturbations : c list) =
  let app = Apps.Registry.arith in
  let e = Dse.Engine.create () in
  let before = Obs.Metrics.snapshot () in
  let evaluated =
    List.map (Dse.Engine.eval_profiled_on e probe app) (base :: perturbations)
  in
  let after = Obs.Metrics.snapshot () in
  check_int (probe.Dse.Target.target ^ ": one simulation") 1
    (delta before after "sim.runs");
  check_int (probe.Dse.Target.target ^ ": one build") 1
    (delta before after "dse.builds");
  check_int
    (probe.Dse.Target.target ^ ": every perturbation priced")
    (List.length perturbations)
    (delta before after "dse.engine.priced");
  List.iteri
    (fun i (config, (cost, profile)) ->
      let seconds, simulated = probe.Dse.Target.simulate app config in
      check_bool
        (Printf.sprintf "%s config %d: cost = direct simulation"
           probe.Dse.Target.target i)
        true
        (compare cost
           { Dse.Cost.seconds; resources = probe.Dse.Target.resources config }
        = 0);
      check_bool
        (Printf.sprintf "%s config %d: profile = direct simulation"
           probe.Dse.Target.target i)
        true
        (compare profile simulated = 0))
    (List.combine (base :: perturbations) evaluated)

let test_price_only_simulate_once () =
  check_bool "LEON2 has price-only perturbations" true
    (List.length price_only_leon2 > 20);
  priced_like_simulated probe Arch.Config.base price_only_leon2;
  priced_like_simulated Dse.Target_microblaze.probe Arch.Mb_config.base
    price_only_microblaze

(* Every whole-run miss is exactly one of a build or a priced
   evaluation, over a batch mixing cache perturbations (their own
   representatives), price-only ones and random configurations, on the
   recursive qsort, whose window traps make the representative walk
   the window counts. *)
let test_misses_are_builds_or_priced () =
  let app = Apps.Extra.qsort in
  let configs =
    List.map (fun (v : Arch.Param.var) -> v.Arch.Param.apply Arch.Config.base)
      Arch.Param.all
    @ List.init 12 config_of_seed
  in
  let configs = List.filter Synth.Estimate.feasible configs in
  let pool = Dse.Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Dse.Pool.shutdown pool)
    (fun () ->
      let e = Dse.Engine.create ~pool () in
      let before = Obs.Metrics.snapshot () in
      let costs = Dse.Engine.eval_all_feasible_on e probe app configs in
      let after = Obs.Metrics.snapshot () in
      check_bool "every configuration fits" true
        (List.for_all (fun c -> c <> None) costs);
      let misses = delta before after "dse.engine.misses" in
      let builds = delta before after "dse.builds" in
      let priced = delta before after "dse.engine.priced" in
      check_int "one miss per configuration" (List.length configs) misses;
      check_bool "both kinds present" true (builds > 0 && priced > 0);
      check_int "misses = builds + priced" misses (builds + priced))

(* One model build of [app] on a fresh engine over a [workers]-worker
   pool — base first, then every row on the pool, as [Measure.build]
   does — returning its costs and the deltas of [counters]; the same
   build on 1 and 2 workers must give equal costs and counts. *)
let build_work (type c) (module T : Dse.Target.S with type config = c) app
    counters =
  let rows = List.map (fun v -> v.T.apply (T.reference_config v)) T.vars in
  let work workers =
    let pool = Dse.Pool.create ~workers () in
    Fun.protect
      ~finally:(fun () -> Dse.Pool.shutdown pool)
      (fun () ->
        let e = Dse.Engine.create ~pool () in
        let before = Obs.Metrics.snapshot () in
        let base = Dse.Engine.eval_on e T.probe app T.base in
        let costs = Dse.Engine.map e (Dse.Engine.eval_on e T.probe app) rows in
        let after = Obs.Metrics.snapshot () in
        (base :: costs, List.map (delta before after) counters))
  in
  let costs1, work1 = work 1 and costs2, work2 = work 2 in
  check_bool (T.name ^ ": same costs") true (compare costs1 costs2 = 0);
  List.iter2
    (fun name (w1, w2) ->
      check_int (Printf.sprintf "%s: %s on 1 and 2 workers" T.name name) w1 w2)
    counters (List.combine work1 work2);
  (List.length rows, work1)

(* The classes a build records depend only on the requests, on qsort,
   whose window traps make the class walk the window counts. *)
let test_build_work_independent_of_workers () =
  let rows, work =
    build_work (module Dse.Target_leon2) Apps.Extra.qsort
      [ "sim.runs"; "dse.builds"; "sim.cycles" ]
  in
  check_bool "some rows priced" true (List.nth work 0 < rows + 1)

(* Representatives are engine state: [clear] forgets them, and they are
   keyed by target name like every other entry. *)
let test_representatives_cleared_and_per_target () =
  let app = Apps.Registry.arith in
  let perturbed = List.hd price_only_leon2 in
  let runs f =
    let before = Obs.Metrics.snapshot () in
    f ();
    delta before (Obs.Metrics.snapshot ()) "sim.runs"
  in
  let e = Dse.Engine.create () in
  let eval probe c () = ignore (Dse.Engine.eval_on e probe app c) in
  check_int "base simulates" 1 (runs (eval probe Arch.Config.base));
  check_int "its perturbation is priced" 0 (runs (eval probe perturbed));
  Dse.Engine.clear e;
  check_int "after clear the representative is simulated again" 1
    (runs (eval probe perturbed));
  let renamed name = { probe with Dse.Target.target = name } in
  let alpha = renamed "alpha" and beta = renamed "beta" in
  check_int "alpha simulates its base" 1 (runs (eval alpha Arch.Config.base));
  check_int "beta shares no representative with alpha" 1
    (runs (eval beta perturbed))

(* --- Replay --- *)

(* Every single-cache perturbation: each cache variable applied to its
   reference configuration (base, or a plain 2-way cache for a
   replacement policy), as a model build measures it. *)
let leon2_cache_rows =
  List.filter_map
    (fun (v : Arch.Param.var) ->
      match v.Arch.Param.group with
      | Arch.Param.Icache_ways | Arch.Param.Icache_way_kb
      | Arch.Param.Icache_line | Arch.Param.Icache_repl
      | Arch.Param.Dcache_ways | Arch.Param.Dcache_way_kb
      | Arch.Param.Dcache_line | Arch.Param.Dcache_repl ->
          Some (v.Arch.Param.apply (Dse.Target_leon2.reference_config v))
      | _ -> None)
    Arch.Param.all

let mb_cache_rows =
  List.filter_map
    (fun (v : Arch.Mb_param.var) ->
      match v.Arch.Mb_param.group with
      | Arch.Mb_param.Icache_way_kb | Arch.Mb_param.Icache_line
      | Arch.Mb_param.Dcache_ways | Arch.Mb_param.Dcache_way_kb
      | Arch.Mb_param.Dcache_line | Arch.Mb_param.Dcache_repl ->
          Some
            (v.Arch.Mb_param.apply (Dse.Target_microblaze.reference_config v))
      | _ -> None)
    Arch.Mb_param.all

(* Base, then every single-cache perturbation, on a fresh engine: one
   recording per target, and every answer equal to a direct
   simulation. *)
let replayed_like_simulated (type c) (probe : c Dse.Target.probe) base
    (perturbations : c list) =
  let app = Apps.Registry.arith in
  let e = Dse.Engine.create () in
  let before = Obs.Metrics.snapshot () in
  let evaluated =
    List.map (Dse.Engine.eval_profiled_on e probe app) (base :: perturbations)
  in
  let after = Obs.Metrics.snapshot () in
  let name = probe.Dse.Target.target in
  check_int (name ^ ": one simulation") 1 (delta before after "sim.runs");
  check_int (name ^ ": one build") 1 (delta before after "dse.builds");
  check_int (name ^ ": every perturbation priced") (List.length perturbations)
    (delta before after "dse.engine.priced");
  List.iteri
    (fun i (config, (cost, profile)) ->
      let seconds, simulated = probe.Dse.Target.simulate app config in
      check_bool (Printf.sprintf "%s config %d: seconds = direct simulation" name i)
        true
        (Int64.bits_of_float cost.Dse.Cost.seconds = Int64.bits_of_float seconds);
      check_bool (Printf.sprintf "%s config %d: profile = direct simulation" name i)
        true
        (compare profile simulated = 0))
    (List.combine (base :: perturbations) evaluated)

let test_cache_shapes_replayed () =
  check_bool "LEON2 has cache perturbations" true
    (List.length leon2_cache_rows > 15);
  check_bool "MicroBlaze has cache perturbations" true
    (List.length mb_cache_rows > 10);
  replayed_like_simulated probe Arch.Config.base leon2_cache_rows;
  replayed_like_simulated Dse.Target_microblaze.probe Arch.Mb_config.base
    mb_cache_rows

(* The engine keeps one application's recordings: a second
   application's evaluation drops the first's, and the first, evaluated
   again, is recorded exactly once more. *)
let test_recordings_retained_per_app () =
  let e = Dse.Engine.create () in
  let runs f =
    let before = Obs.Metrics.snapshot () in
    f ();
    delta before (Obs.Metrics.snapshot ()) "sim.runs"
  in
  let eval app c () = ignore (Dse.Engine.eval_on e probe app c) in
  let arith = Apps.Registry.arith and drr = Apps.Registry.drr in
  let c1 = config_of_seed 1 and c2 = config_of_seed 2 and c3 = config_of_seed 3 in
  check_int "arith is recorded" 1 (runs (eval arith Arch.Config.base));
  check_int "arith replays" 0 (runs (eval arith c1));
  check_int "drr is recorded" 1 (runs (eval drr Arch.Config.base));
  check_int "drr replays" 0 (runs (eval drr c1));
  check_int "arith is recorded once more" 1 (runs (eval arith c2));
  check_int "and replays again" 0 (runs (eval arith c3))

(* Which recordings and replays a build makes depends only on the
   requests: every row's replays are made once, whichever worker asks
   first. *)
let test_replay_work_independent_of_workers () =
  let counters =
    [ "sim.runs"; "dse.builds"; "dse.engine.priced"; "sim.replays" ]
  in
  let check_build (type c) (module T : Dse.Target.S with type config = c) =
    let _, work = build_work (module T) Apps.Registry.drr counters in
    check_int (T.name ^ ": one recording") 1 (List.nth work 0);
    check_bool (T.name ^ ": rows replayed") true (List.nth work 3 > 2)
  in
  check_build (module Dse.Target_leon2);
  check_build (module Dse.Target_microblaze)

(* --- Per-segment measurement --- *)

(* Per-phase measurement of arith split at one boundary, the primitive
   [Schedule.run] hands the engine, over base and its single-cache and
   price-only perturbations: one execution class per target. *)
let window = 500
let boundaries = [ 500 ]

let leon2_class = Arch.Config.base :: (leon2_cache_rows @ price_only_leon2)

let mb_class =
  Arch.Mb_config.base :: (mb_cache_rows @ price_only_microblaze)

(* Every configuration twice, on a fresh engine: no engine counter and
   no build moves, and a repeat's segments equal the first answer. *)
let segments_count_no_lookup (type c) (probe : c Dse.Target.probe)
    (configs : c list) =
  let name = probe.Dse.Target.target in
  let app = Apps.Registry.arith in
  let e = Dse.Engine.create () in
  let before = Obs.Metrics.snapshot () in
  let answers =
    Dse.Engine.segments_on e probe app ~window ~boundaries (configs @ configs)
  in
  let after = Obs.Metrics.snapshot () in
  List.iter
    (fun (counter, (_, metric)) ->
      match metric with
      | Obs.Metrics.Counter _
        when String.starts_with ~prefix:"dse.engine." counter
             || counter = "dse.builds" ->
          check_int (Printf.sprintf "%s: %s unmoved" name counter) 0
            (delta before after counter)
      | _ -> ())
    after;
  check_int (name ^ ": one recording") 1 (delta before after "sim.runs");
  let n = List.length configs in
  check_int (name ^ ": one answer per request") (2 * n) (List.length answers);
  List.iteri
    (fun i (first, repeat) ->
      check_int (Printf.sprintf "%s config %d: two segments" name i) 2
        (List.length first);
      check_bool (Printf.sprintf "%s config %d: repeat answers equal" name i)
        true
        (compare first repeat = 0))
    (List.combine (List.filteri (fun i _ -> i < n) answers)
       (List.filteri (fun i _ -> i >= n) answers))

let test_segments_count_no_lookup () =
  segments_count_no_lookup probe leon2_class;
  segments_count_no_lookup Dse.Target_microblaze.probe mb_class

(* After per-segment measurement, every configuration's whole-run
   evaluation is a miss, only the first claims the recording as its
   build, and the segments sum field for field to the evaluated
   profile, seconds included. *)
let segments_then_evaluate (type c) (probe : c Dse.Target.probe)
    (configs : c list) =
  let name = probe.Dse.Target.target in
  let app = Apps.Registry.arith in
  let e = Dse.Engine.create () in
  let answers = Dse.Engine.segments_on e probe app ~window ~boundaries configs in
  List.iteri
    (fun i (config, segments) ->
      let before = Obs.Metrics.snapshot () in
      ignore (Dse.Engine.eval_on e probe app config);
      let after = Obs.Metrics.snapshot () in
      let at = Printf.sprintf "%s config %d" name i in
      check_int (at ^ ": a miss") 1 (delta before after "dse.engine.misses");
      check_int (at ^ ": the build iff first") (if i = 0 then 1 else 0)
        (delta before after "dse.builds");
      check_int (at ^ ": no simulation") 0 (delta before after "sim.runs");
      let cost, profile = Dse.Engine.eval_profiled_on e probe app config in
      let summed =
        List.fold_left Sim.Profiler.add (Sim.Profiler.create ()) segments
      in
      check_bool (at ^ ": segments sum to the profile") true
        (compare summed profile = 0);
      check_bool (at ^ ": and to its seconds") true
        (Int64.bits_of_float (Sim.Machine.profile_seconds summed)
        = Int64.bits_of_float cost.Dse.Cost.seconds))
    (List.combine configs answers)

let test_segments_then_evaluate () =
  segments_then_evaluate probe leon2_class;
  segments_then_evaluate Dse.Target_microblaze.probe mb_class

(* --- Pool --- *)

(* --- Request sequences: timing-free counting, bounded retention --- *)

(* A small kernel under many application names: each name is its own
   application to the engine, with its own recording and memo. *)
let kernel =
  lazy
    (Minic.Codegen.compile
       (Minic.Parser.parse_exn
          {|
int xs[256];
int main() {
  int k, acc;
  acc = 0;
  k = 0;
  while (k < 256) {
    xs[k] = (k * 37) & 255;
    acc = (acc + xs[k] * xs[(k * 5) & 255]) & 0xFFFFFF;
    k = k + 1;
  }
  return acc;
}
|}))

let app_named name =
  {
    Apps.Registry.name;
    description = "small kernel";
    source = Minic.Ast.{ globals = []; funcs = [] };
    program = Lazy.from_val (Lazy.force kernel);
    reps = 3;
    paper_base_seconds = Float.nan;
  }

(* What [Optimizer.run] asks of the engine for one application: a model
   build — base, then every row with its reference on the engine's
   pool, coupled rows looking up their reference inside the batch — and
   a verification of a two-variable pick. *)
let model_and_verify (type c) (module T : Dse.Target.S with type config = c) e
    app =
  let base = Dse.Engine.eval_on e T.probe app T.base in
  let rows =
    Dse.Engine.map e
      (fun (v : T.var) ->
        let reference = T.reference_config v in
        let cost = Dse.Engine.eval_on e T.probe app (v.T.apply reference) in
        if T.equal reference T.base then (cost, base)
        else (cost, Dse.Engine.eval_on e T.probe app reference))
      T.vars
  in
  let pick = T.apply_all T.base [ T.var 1; T.var (T.var_count - 1) ] in
  (base, rows, Dse.Engine.eval_on e T.probe app pick)

let both e app =
  ( model_and_verify (module Dse.Target_leon2) e app,
    model_and_verify (module Dse.Target_microblaze) e app )

(* Enough applications to take the memo past its budget. *)
let evicting = 120

let engine_counters =
  [
    "dse.engine.hits"; "dse.engine.misses"; "dse.engine.inflight_dedup";
    "dse.engine.priced"; "dse.engine.evictions"; "dse.builds"; "sim.runs";
  ]

(* One request sequence — a model build and a verification of two
   registry applications on both targets, then [evicting] more
   applications — on 1, 2 and 4 workers: every counter, and every
   answer, must be equal. *)
let test_counters_independent_of_workers () =
  let sequence workers =
    let pool = Dse.Pool.create ~workers () in
    Fun.protect
      ~finally:(fun () -> Dse.Pool.shutdown pool)
      (fun () ->
        let e = Dse.Engine.create ~pool () in
        let before = Obs.Metrics.snapshot () in
        let answers =
          List.map (both e)
            ([ Apps.Registry.arith; Apps.Extra.qsort ]
            @ List.init evicting (fun i -> app_named (Printf.sprintf "k%d" i)))
        in
        let after = Obs.Metrics.snapshot () in
        (answers, List.map (delta before after) engine_counters))
  in
  let answers1, counts1 = sequence 1 in
  check_bool "the sequence evicts" true
    (List.nth counts1 4 > 0);
  check_bool "inside-batch lookups counted as dedups" true
    (List.nth counts1 2 > 0);
  List.iter
    (fun workers ->
      let answers, counts = sequence workers in
      check_bool (Printf.sprintf "same answers on %d workers" workers) true
        (compare answers answers1 = 0);
      List.iter2
        (fun name (a, b) ->
          check_int (Printf.sprintf "%s on 1 and %d workers" name workers) a b)
        engine_counters (List.combine counts1 counts))
    [ 2; 4 ]

(* More applications than the budget holds: the least recently used go,
   counted, the memo stays within its budget, and an evicted
   application's answers come back bit for bit. *)
let test_retention_bounded () =
  let e = Dse.Engine.create () in
  let first = app_named "first" in
  let before = Obs.Metrics.snapshot () in
  let answers = both e first in
  let kept = Dse.Engine.retained_bytes e in
  check_bool "one application fits easily" true
    (kept > 0 && kept < Dse.Engine.budget_bytes / 8);
  for i = 1 to evicting do
    ignore (both e (app_named (Printf.sprintf "k%d" i)))
  done;
  let mid = Obs.Metrics.snapshot () in
  check_bool "applications evicted" true
    (delta before mid "dse.engine.evictions" > 0);
  check_bool "retained bytes within the budget" true
    (Dse.Engine.retained_bytes e <= Dse.Engine.budget_bytes);
  let again = both e first in
  let after = Obs.Metrics.snapshot () in
  check_bool "the evicted application was recomputed" true
    (delta mid after "dse.engine.misses" > 0);
  check_bool "recomputed answers are bit-identical" true
    (compare answers again = 0);
  (* a recently used application survives *)
  let last = app_named (Printf.sprintf "k%d" evicting) in
  let before = Obs.Metrics.snapshot () in
  ignore (both e last);
  let after = Obs.Metrics.snapshot () in
  check_int "the latest application is all hits" 0
    (delta before after "dse.engine.misses")

let test_pool_map_order () =
  let pool = Dse.Pool.create ~workers:3 () in
  Fun.protect
    ~finally:(fun () -> Dse.Pool.shutdown pool)
    (fun () ->
      let xs = List.init 100 Fun.id in
      check_bool "order preserved" true
        (Dse.Pool.map pool (fun x -> x * x) xs = List.map (fun x -> x * x) xs);
      check_bool "empty list" true (Dse.Pool.map pool Fun.id [] = []))

let test_pool_exception_propagates () =
  let pool = Dse.Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Dse.Pool.shutdown pool)
    (fun () ->
      match
        Dse.Pool.map pool
          (fun i -> if i = 13 then failwith "boom" else i)
          (List.init 40 Fun.id)
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure m -> check_bool "original exception" true (m = "boom"))

let test_pool_nested_batches () =
  (* A task that itself submits a batch to the same pool must not
     deadlock: the submitter helps drain the queue. *)
  let pool = Dse.Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Dse.Pool.shutdown pool)
    (fun () ->
      let rows =
        Dse.Pool.map pool
          (fun i ->
            List.fold_left ( + ) 0
              (Dse.Pool.map pool (fun j -> (10 * i) + j) [ 1; 2; 3; 4; 5 ]))
          [ 0; 1; 2; 3 ]
      in
      check_bool "nested results" true
        (rows = List.map (fun i -> (50 * i) + 15) [ 0; 1; 2; 3 ]))

let test_pool_nested_solver () =
  (* Deadlock regression for the parallel BINLP solver running inside
     a pool batch (an Engine evaluation that solves a subproblem): the
     worker's nested run_batch must help from its own deque instead of
     parking while its subtree tasks sit unstolen. *)
  let pool = Dse.Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Dse.Pool.shutdown pool)
    (fun () ->
      let problem i =
        {
          Optim.Binlp.nvars = 6;
          objective =
            Array.init 6 (fun j -> float_of_int (((i + j) mod 5) - 3));
          groups = [ [ 0; 1; 2 ]; [ 3; 4 ] ];
          constraints = [];
        }
      in
      let solved =
        Dse.Pool.map pool
          (fun i ->
            let p = problem i in
            let o =
              Optim.Binlp.solve ~runner:(Dse.Pool.solver_runner pool) p
            in
            (i, o.Optim.Binlp.best))
          [ 0; 1; 2; 3; 4; 5 ]
      in
      List.iter
        (fun (i, best) ->
          match (best, Optim.Binlp.brute_force (problem i)) with
          | Some s, Some b ->
              check_bool "nested solve matches brute force" true
                (s.Optim.Binlp.x = b.Optim.Binlp.x)
          | _ -> Alcotest.fail "nested solve missing a solution")
        solved)

let test_pool_metrics_nonzero () =
  (* Regression: pool task/worker metrics used to stay 0 on runs whose
     work never crossed a deque (singleton batches, the single-core
     inline fallback), reporting an idle pool under a thousand builds. *)
  let tasks () =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "dse.pool.tasks"
  in
  let pool = Dse.Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Dse.Pool.shutdown pool)
    (fun () ->
      let before = tasks () in
      let r = Dse.Pool.map pool (fun x -> x + 1) [ 1; 2; 3; 4; 5 ] in
      check_bool "map result" true (r = [ 2; 3; 4; 5; 6 ]);
      Alcotest.(check int) "five pooled tasks counted" (before + 5) (tasks ());
      let before = tasks () in
      check_bool "singleton map" true (Dse.Pool.map pool (fun x -> x * 2) [ 21 ] = [ 42 ]);
      Alcotest.(check int) "inline singleton counted" (before + 1) (tasks ());
      let before = tasks () in
      Alcotest.(check int) "run_inline result" 7 (Dse.Pool.run_inline (fun () -> 7));
      Alcotest.(check int) "run_inline counted" (before + 1) (tasks ());
      match
        Obs.Metrics.find (Obs.Metrics.snapshot ()) "dse.pool.workers"
      with
      | Some (Obs.Metrics.Gauge w) ->
          check_bool "worker gauge nonzero" true (w >= 1.0)
      | _ -> Alcotest.fail "worker gauge missing")

let () =
  Alcotest.run "engine"
    [
      ( "memo",
        [
          QCheck_alcotest.to_alcotest memo_bit_identical_qtest;
          Alcotest.test_case "hit/miss/build counts" `Quick test_memo_counts;
          Alcotest.test_case "noise keys distinct" `Quick
            test_noise_amplitudes_distinct_keys;
          Alcotest.test_case "noise magnitude pinned" `Quick
            test_noise_magnitude_pinned;
        ] );
      ( "feasible",
        [
          Alcotest.test_case "matches reference" `Quick
            test_eval_feasible_matches_reference;
          Alcotest.test_case "unfit upgrade" `Quick test_unfit_upgrade;
        ] );
      ( "batch",
        [
          Alcotest.test_case "eval_all = serial (4 domains)" `Quick
            test_eval_all_matches_serial;
          Alcotest.test_case "in-batch dedup" `Quick test_eval_all_dedups_batch;
          Alcotest.test_case "fig2 sweep build count" `Quick
            test_fig2_sweep_build_count;
        ] );
      ( "priced",
        [
          Alcotest.test_case "price-only perturbations simulate once" `Quick
            test_price_only_simulate_once;
          Alcotest.test_case "misses = builds + priced" `Quick
            test_misses_are_builds_or_priced;
          Alcotest.test_case "build work independent of workers" `Quick
            test_build_work_independent_of_workers;
          Alcotest.test_case "representatives cleared and per target" `Quick
            test_representatives_cleared_and_per_target;
        ] );
      ( "replay",
        [
          Alcotest.test_case "cache shapes replay one recording" `Quick
            test_cache_shapes_replayed;
          Alcotest.test_case "recordings kept for one application" `Quick
            test_recordings_retained_per_app;
          Alcotest.test_case "counters independent of workers" `Quick
            test_counters_independent_of_workers;
          Alcotest.test_case "retention bounded" `Quick test_retention_bounded;
          Alcotest.test_case "replay work independent of workers" `Quick
            test_replay_work_independent_of_workers;
        ] );
      ( "segments",
        [
          Alcotest.test_case "segments_on counts no lookup" `Quick
            test_segments_count_no_lookup;
          Alcotest.test_case "evaluations after segments_on miss" `Quick
            test_segments_then_evaluate;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "exceptions propagate" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "nested batches" `Quick test_pool_nested_batches;
          Alcotest.test_case "nested solver batch" `Quick
            test_pool_nested_solver;
          Alcotest.test_case "task/worker metrics nonzero" `Quick
            test_pool_metrics_nonzero;
        ] );
    ]

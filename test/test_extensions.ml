(* Tests for the extension layer: heuristic baselines, the convex
   recast, the energy model, ablations and the figure report drivers. *)

module Leon2 = Dse.Leon2.S

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Heuristic baselines --- *)

let test_random_config_valid () =
  let rng = Sim.Rng.create ~seed:99 in
  for _ = 1 to 500 do
    let c = Dse.Target_leon2.random_config rng in
    match Arch.Config.validate c with
    | Ok () -> ()
    | Error m -> Alcotest.failf "invalid random config: %s" m
  done

let test_random_search_budget () =
  let r =
    Leon2.Heuristic.random_search ~builds:10 ~weights:Dse.Cost.runtime_weights
      Apps.Registry.arith
  in
  (* Every feasible draw consumes budget; bounds admission decides
     whether it is simulated ([builds]) or provably dominated and
     skipped ([pruned]). *)
  check_int "spent exactly the budget" 10
    (r.Leon2.Heuristic.builds + r.Leon2.Heuristic.pruned);
  check_bool "at least the winner is simulated" true
    (r.Leon2.Heuristic.builds >= 1);
  check_bool "never worse than base" true (r.Leon2.Heuristic.objective <= 0.0);
  check_bool "feasible" true (Synth.Resource.fits r.Leon2.Heuristic.cost.Dse.Cost.resources)

let test_random_search_deterministic () =
  let go () =
    (Leon2.Heuristic.random_search ~seed:7 ~builds:8
       ~weights:Dse.Cost.runtime_weights Apps.Registry.arith)
      .Leon2.Heuristic.objective
  in
  Alcotest.(check (float 0.0)) "same seed, same answer" (go ()) (go ())

let test_coordinate_descent_improves () =
  let r =
    Leon2.Heuristic.coordinate_descent ~weights:Dse.Cost.runtime_weights
      Apps.Registry.arith
  in
  check_bool "strictly better than base" true (r.Leon2.Heuristic.objective < 0.0);
  check_bool "counts its candidates" true
    (r.Leon2.Heuristic.builds + r.Leon2.Heuristic.pruned > 10);
  check_bool "valid result" true (Arch.Config.is_valid r.Leon2.Heuristic.config)

let test_paper_method_build_count () =
  let r = Leon2.Heuristic.paper_method ~weights:Dse.Cost.runtime_weights Apps.Registry.arith in
  (* base + 52 probes + 2 replacement references + 1 verification *)
  check_int "56 builds" 56 r.Leon2.Heuristic.builds

let test_static_features () =
  let ft = Apps.Features.of_app Apps.Registry.arith in
  let prog = Lazy.force Apps.Registry.arith.Apps.Registry.program in
  check_int "code bytes are 4 per instruction"
    (4 * Array.length prog.Isa.Program.code)
    ft.Apps.Features.code_bytes;
  check_int "arith code fits one 1KB way" 1 (Apps.Features.code_resident_kb ft);
  check_bool "arith multiplies" false (Apps.Features.mul_free ft);
  check_bool "arith divides" false (Apps.Features.div_free ft);
  Alcotest.(check (option int))
    "call depth 0: main only" (Some 0) ft.Apps.Features.call_depth;
  Alcotest.(check (option int))
    "one 96-byte frame" (Some 96) ft.Apps.Features.stack_bytes;
  check_bool "instruction mix sums to the total" true
    (let m = ft.Apps.Features.mix in
     m.Apps.Features.total
     = m.Apps.Features.alu + m.Apps.Features.mul + m.Apps.Features.div
       + m.Apps.Features.load + m.Apps.Features.store + m.Apps.Features.branch
       + m.Apps.Features.call + m.Apps.Features.other);
  (* blastn calls helpers: its nesting is deeper *)
  let bft = Apps.Features.of_app Apps.Registry.blastn in
  check_bool "blastn call depth positive" true
    (match bft.Apps.Features.call_depth with Some d -> d > 0 | None -> false)

let test_features_recursion_unbounded () =
  let open Minic.Ast in
  let f name body = { name; params = []; locals = []; body } in
  let src =
    {
      globals = [];
      funcs =
        [ f "loop" [ Do (Call ("loop", [])); Ret (i 0) ];
          f "main" [ Do (Call ("loop", [])); Ret (i 0) ] ];
    }
  in
  let ft = Apps.Features.of_program src (Minic.Codegen.compile src) in
  Alcotest.(check (option int))
    "recursive call graph has no depth bound" None ft.Apps.Features.call_depth;
  Alcotest.(check (option int))
    "and no stack bound" None ft.Apps.Features.stack_bytes

let test_static_pruning_preserves_trajectory () =
  let weights = Dse.Cost.runtime_weights in
  let app = Apps.Registry.arith in
  let plain = Leon2.Heuristic.coordinate_descent ~weights app in
  let pruned =
    Leon2.Heuristic.coordinate_descent
      ~features:(Apps.Features.of_app app)
      ~weights app
  in
  check_bool "same final configuration" true
    (Arch.Config.equal plain.Leon2.Heuristic.config pruned.Leon2.Heuristic.config);
  Alcotest.(check (float 1e-9))
    "same objective" plain.Leon2.Heuristic.objective
    pruned.Leon2.Heuristic.objective;
  check_bool "features never prune less than bounds admission alone" true
    (pruned.Leon2.Heuristic.pruned >= plain.Leon2.Heuristic.pruned);
  check_bool "some candidates pruned" true (pruned.Leon2.Heuristic.pruned > 0);
  check_bool "no more builds with features than without" true
    (pruned.Leon2.Heuristic.builds <= plain.Leon2.Heuristic.builds);
  (* both runs walk the identical candidate sequence; each candidate is
     either simulated or (feature- or bounds-)pruned *)
  check_int "candidates considered add up"
    (plain.Leon2.Heuristic.builds + plain.Leon2.Heuristic.pruned)
    (pruned.Leon2.Heuristic.builds + pruned.Leon2.Heuristic.pruned)

(* --- Convex recast --- *)

let test_convex_study_runs () =
  let model =
    Leon2.Measure.build ~dims:Arch.Param.dcache_size_dims Apps.Registry.arith
  in
  let s = Dse.Convex.run ~weights:Dse.Cost.runtime_weights model in
  check_bool "recast decodes to a valid config" true
    (Arch.Config.is_valid s.Dse.Convex.recast_config);
  check_bool "positive LP node count" true (s.Dse.Convex.milp_nodes > 0);
  (* On the dcache-only model for arith (no attractive products), both
     solvers settle on configurations of equal objective value. *)
  ignore s.Dse.Convex.agrees

(* --- Energy --- *)

let test_energy_measure_positive () =
  let m = Dse.Energy.measure Apps.Registry.arith Arch.Config.base in
  check_bool "positive energy" true (m.Dse.Energy.millijoules > 0.0);
  check_bool "sane average power" true
    (m.Dse.Energy.average_milliwatts > 10.0
    && m.Dse.Energy.average_milliwatts < 1000.0)

let test_energy_static_grows_with_resources () =
  let big =
    { Arch.Config.base with
      dcache = { Arch.Config.base.Arch.Config.dcache with way_kb = 32 } }
  in
  check_bool "more BRAM, more static power" true
    (Dse.Energy.static_milliwatts big
    > Dse.Energy.static_milliwatts Arch.Config.base)

let test_energy_mult_tradeoff () =
  (* The 32x32 multiplier burns more per operation but finishes sooner;
     both numbers must move in the modeled directions for a
     multiply-heavy app. *)
  let fast =
    { Arch.Config.base with
      Arch.Config.iu =
        { Arch.Config.base.Arch.Config.iu with multiplier = Arch.Config.Mul_32x32 } }
  in
  let b = Dse.Energy.measure Apps.Registry.arith Arch.Config.base in
  let f = Dse.Energy.measure Apps.Registry.arith fast in
  check_bool "faster" true (f.Dse.Energy.seconds < b.Dse.Energy.seconds);
  check_bool "higher average power" true
    (f.Dse.Energy.average_milliwatts > b.Dse.Energy.average_milliwatts)

let test_energy_optimize_improves () =
  let o = Dse.Energy.optimize ~weights:Dse.Energy.energy_weights Apps.Registry.arith in
  check_bool "energy reduced" true (o.Dse.Energy.energy_change_percent < 0.0);
  check_bool "valid config" true (Arch.Config.is_valid o.Dse.Energy.config)

(* --- Ablation --- *)

let test_variant_study_shapes () =
  let model =
    Leon2.Measure.build ~dims:Arch.Param.dcache_size_dims Apps.Registry.blastn
  in
  let points = Leon2.Ablation.variant_study ~weights:Dse.Cost.runtime_weights model in
  check_int "four variants" 4 (List.length points);
  (* All four must produce decodable outcomes. *)
  List.iter
    (fun (p : Leon2.Ablation.variant_point) ->
      check_bool "valid" true
        (Arch.Config.is_valid p.Leon2.Ablation.outcome.Leon2.Optimizer.config))
    points

let test_independence_study_signs () =
  (* Arith has no cache overlap: its prediction is exact.  Use the
     cheap dcache dims to keep this fast: build a study by hand. *)
  let o =
    Leon2.Optimizer.run ~dims:Arch.Param.dcache_size_dims
      ~weights:Dse.Cost.runtime_weights Apps.Registry.arith
  in
  let base = o.Leon2.Optimizer.model.Leon2.Measure.base.Dse.Cost.seconds in
  let predicted = o.Leon2.Optimizer.predicted.Leon2.Optimizer.seconds in
  let actual = o.Leon2.Optimizer.actual.Dse.Cost.seconds in
  check_bool "exact prediction for arith" true
    (Float.abs (predicted -. actual) /. base < 1e-6)

(* --- Multi-application optimization --- *)

let test_multiapp_validation () =
  (match Leon2.Multiapp.optimize ~weights:Dse.Cost.runtime_weights [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty workload must be rejected");
  match
    Leon2.Multiapp.optimize ~weights:Dse.Cost.runtime_weights
      [ (Apps.Registry.arith, -1.0) ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative share must be rejected"

let test_multiapp_single_equals_solo () =
  (* A one-application "mix" must reproduce the solo optimization. *)
  let dims = Arch.Param.dcache_size_dims in
  let solo =
    Leon2.Optimizer.run ~dims ~weights:Dse.Cost.runtime_weights Apps.Registry.arith
  in
  let mix =
    Leon2.Multiapp.optimize ~dims ~weights:Dse.Cost.runtime_weights
      [ (Apps.Registry.arith, 5.0) ]
  in
  check_bool "identical configuration" true
    (Arch.Config.equal solo.Leon2.Optimizer.config mix.Leon2.Multiapp.config)

let test_multiapp_compromise () =
  (* DRR wants a big dcache, Arith a small one; the mix must not hurt
     either beyond its solo optimum and must improve the blend. *)
  let mix =
    Leon2.Multiapp.optimize ~dims:Arch.Param.dcache_size_dims
      ~weights:Dse.Cost.runtime_weights
      [ (Apps.Registry.drr, 0.5); (Apps.Registry.arith, 0.5) ]
  in
  check_bool "mix improves" true (mix.Leon2.Multiapp.mix_gain_percent <= 0.0);
  List.iter
    (fun (app, change) ->
      check_bool (app.Apps.Registry.name ^ " not degraded") true (change <= 0.01))
    mix.Leon2.Multiapp.per_app

(* --- Plot --- *)

let test_plot_renders () =
  let out =
    Fmt.str "%a"
      (fun ppf pts -> Dse.Plot.xy ~x_label:"kb" ~y_label:"misses" ppf pts)
      [ (1.0, 100.0); (2.0, 50.0); (4.0, 10.0) ]
  in
  check_bool "contains marks" true (String.contains out '*');
  check_bool "labels present" true
    (try
       ignore (Str.search_forward (Str.regexp_string "misses") out 0);
       true
     with Not_found -> false)

let test_plot_golden () =
  (* Pins nearest-cell rounding (the midpoint lands in column 12 of 24,
     not the truncated 11) and the x-axis labels: x1 right-aligned with
     the axis edge instead of the old fixed [width - 20] padding. *)
  let out =
    Fmt.str "%a"
      (fun ppf pts -> Dse.Plot.xy ~width:24 ~height:3 ppf pts)
      [ (0.0, 10.0); (0.5, 20.0); (1.0, 10.0) ]
  in
  let expected =
    "y\n\
    \     20.00 |            *           \n\
    \           |                        \n\
    \     10.00 |*                      *\n\
    \           +------------------------\n\
    \            0.00                1.00  (x)\n"
  in
  Alcotest.(check string) "golden plot" expected out;
  (* Narrow plots (width < 20) keep a positive pad between the labels. *)
  let narrow =
    Fmt.str "%a"
      (fun ppf pts -> Dse.Plot.xy ~width:12 ~height:3 ppf pts)
      [ (0.0, 1.0); (1.0, 2.0) ]
  in
  let last_line =
    match List.rev (String.split_on_char '\n' (String.trim narrow)) with
    | l :: _ -> l
    | [] -> ""
  in
  check_bool "narrow plot labels present" true
    (try
       ignore (Str.search_forward (Str.regexp_string "1.00") last_line 0);
       true
     with Not_found -> false)

let test_plot_degenerate () =
  let render pts =
    Fmt.str "%a" (fun ppf -> Dse.Plot.xy ppf) pts
  in
  check_bool "empty input" true (String.length (render []) > 0);
  check_bool "single point" true (String.contains (render [ (1.0, 1.0) ]) '*');
  check_bool "flat series" true
    (String.contains (render [ (1.0, 5.0); (2.0, 5.0) ]) '*')

(* --- Parallel model building --- *)

let test_parallel_build_identical () =
  (* Model building fans its per-variable measurements out on the
     pool: on a cold engine, every row must be bit-identical to a
     serial evaluation of its configuration on a fresh engine. *)
  Dse.Engine.clear (Dse.Engine.default ());
  let app = Apps.Registry.arith in
  let model = Leon2.Measure.build ~dims:Arch.Param.dcache_size_dims app in
  let fresh = Dse.Engine.create () in
  let serial config =
    Dse.Engine.eval_on fresh Dse.Target_leon2.probe app config
  in
  check_int "8 rows" 8 (List.length model.Leon2.Measure.rows);
  check_bool "base identical" true
    (compare model.Leon2.Measure.base (serial Arch.Config.base) = 0);
  List.iter
    (fun (r : Leon2.Measure.row) ->
      check_bool r.Leon2.Measure.var.Arch.Param.label true
        (compare r.Leon2.Measure.cost (serial r.Leon2.Measure.config) = 0))
    model.Leon2.Measure.rows

(* --- Generic domain: scheduler tuning --- *)

let test_sched_state_bytes () =
  check_int "base state" 19456
    (Dse.Sched_tuning.state_bytes Dse.Sched_tuning.base);
  check_int "small geometry" ((64 * 8 * 4) + (3 * 64 * 4))
    (Dse.Sched_tuning.state_bytes { Dse.Sched_tuning.queues = 64; slots = 8; quantum = 400 })

let test_sched_measure_dimensions () =
  let m = Dse.Sched_tuning.measure Dse.Sched_tuning.base in
  check_int "two dimensions" 2 (Array.length m);
  check_bool "positive efficiency cost" true (m.(0) > 0.0);
  check_bool "state matches formula" true
    (m.(1) = float_of_int (Dse.Sched_tuning.state_bytes Dse.Sched_tuning.base))

let test_sched_budget_enforced () =
  (* Whatever the weights, the 12 KB state budget must hold. *)
  List.iter
    (fun weights ->
      let o = Dse.Sched_tuning.Tuner.optimize ~weights in
      check_bool "under budget" true
        (Dse.Sched_tuning.state_bytes o.Dse.Sched_tuning.Tuner.config <= 12288))
    [ [| 100.0; 1.0 |]; [| 1.0; 100.0 |] ]

let test_sched_efficiency_improves () =
  let o = Dse.Sched_tuning.Tuner.optimize ~weights:[| 100.0; 1.0 |] in
  check_bool "efficiency improved" true (o.Dse.Sched_tuning.Tuner.actual.(0) < 0.0)

let test_generic_weight_validation () =
  match Dse.Sched_tuning.Tuner.optimize ~weights:[| 1.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong weight arity must be rejected"

(* --- Report drivers --- *)

let test_fig2_structure () =
  let f = Dse.Report.run_fig2 Apps.Registry.arith in
  check_int "28 points" 28 (List.length f.Dse.Report.points);
  check_bool "optimal is feasible" true (f.Dse.Report.optimal.Leon2.Exhaustive.cost <> None)

let test_fig3_structure () =
  let f = Dse.Report.run_fig3 Apps.Registry.arith in
  check_int "8 model rows" 8 (List.length f.Dse.Report.model.Leon2.Measure.rows);
  check_bool "selection decodes" true
    (Arch.Config.is_valid f.Dse.Report.outcome.Leon2.Optimizer.config)

let test_changed_params () =
  let c =
    { Arch.Config.base with
      Arch.Config.dcache = { Arch.Config.base.Arch.Config.dcache with way_kb = 32 };
      iu = { Arch.Config.base.Arch.Config.iu with icc_hold = false } }
  in
  let params = Dse.Target_leon2.changed_params c in
  check_int "two changes" 2 (List.length params);
  check_bool "dcache size listed" true (List.mem_assoc "dcachsetsz" params);
  check_bool "icc hold listed" true (List.mem_assoc "icchold" params);
  check_int "base changes nothing" 0
    (List.length (Dse.Target_leon2.changed_params Arch.Config.base))

let test_fig6_rows_complete () =
  let model = Leon2.Measure.build Apps.Registry.blastn in
  let rows = Dse.Report.run_fig6 model in
  check_int "eight rows as in the paper" 8 (List.length rows);
  List.iter
    (fun ((r : Leon2.Measure.row), (label, _, _, _)) ->
      check_bool (label ^ " maps to a measured row") true
        (r.Leon2.Measure.cost.Dse.Cost.seconds > 0.0))
    rows

let test_paper_reference_data () =
  check_int "figure 2 rows" 19 (List.length Dse.Paper.figure2);
  check_int "figure 5 apps" 4 (List.length Dse.Paper.figure5);
  check_int "figure 7 apps" 4 (List.length Dse.Paper.figure7);
  check_int "figure 6 rows" 8 (List.length Dse.Paper.figure6);
  let lo, hi = Dse.Paper.runtime_gain_range in
  check_bool "gain range" true (lo = 6.15 && hi = 19.39)

let () =
  Alcotest.run "extensions"
    [
      ( "heuristic",
        [
          Alcotest.test_case "random configs valid" `Quick test_random_config_valid;
          Alcotest.test_case "random search budget" `Quick test_random_search_budget;
          Alcotest.test_case "random search deterministic" `Quick test_random_search_deterministic;
          Alcotest.test_case "coordinate descent" `Slow test_coordinate_descent_improves;
          Alcotest.test_case "paper build count" `Slow test_paper_method_build_count;
          Alcotest.test_case "static features" `Quick test_static_features;
          Alcotest.test_case "recursion unbounded" `Quick
            test_features_recursion_unbounded;
          Alcotest.test_case "static pruning" `Slow
            test_static_pruning_preserves_trajectory;
        ] );
      ( "convex",
        [ Alcotest.test_case "study runs" `Quick test_convex_study_runs ] );
      ( "energy",
        [
          Alcotest.test_case "measure positive" `Quick test_energy_measure_positive;
          Alcotest.test_case "static grows" `Quick test_energy_static_grows_with_resources;
          Alcotest.test_case "multiplier tradeoff" `Quick test_energy_mult_tradeoff;
          Alcotest.test_case "optimize improves" `Slow test_energy_optimize_improves;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "variant study" `Quick test_variant_study_shapes;
          Alcotest.test_case "independence exact for arith" `Quick test_independence_study_signs;
        ] );
      ( "multiapp",
        [
          Alcotest.test_case "validation" `Quick test_multiapp_validation;
          Alcotest.test_case "single = solo" `Quick test_multiapp_single_equals_solo;
          Alcotest.test_case "compromise" `Slow test_multiapp_compromise;
        ] );
      ( "plot",
        [
          Alcotest.test_case "renders" `Quick test_plot_renders;
          Alcotest.test_case "degenerate" `Quick test_plot_degenerate;
          Alcotest.test_case "golden" `Quick test_plot_golden;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "identical model" `Quick test_parallel_build_identical;
        ] );
      ( "generic",
        [
          Alcotest.test_case "state bytes" `Quick test_sched_state_bytes;
          Alcotest.test_case "measure dims" `Quick test_sched_measure_dimensions;
          Alcotest.test_case "budget enforced" `Slow test_sched_budget_enforced;
          Alcotest.test_case "efficiency improves" `Slow test_sched_efficiency_improves;
          Alcotest.test_case "weight validation" `Quick test_generic_weight_validation;
        ] );
      ( "report",
        [
          Alcotest.test_case "fig2 structure" `Quick test_fig2_structure;
          Alcotest.test_case "fig3 structure" `Quick test_fig3_structure;
          Alcotest.test_case "changed params" `Quick test_changed_params;
          Alcotest.test_case "fig6 rows" `Slow test_fig6_rows_complete;
          Alcotest.test_case "paper data" `Quick test_paper_reference_data;
        ] );
    ]

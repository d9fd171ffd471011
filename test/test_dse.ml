(* Integration tests for the DSE core: cost model, measurement,
   formulation, optimizer, exhaustive baseline, and the paper's
   near-optimality claims. *)

module Leon2 = Dse.Leon2.S

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- Cost --- *)

let mk_cost seconds luts brams =
  { Dse.Cost.seconds; resources = { Synth.Resource.luts; brams } }

let test_cost_deltas () =
  let base = mk_cost 10.0 19200 80 in
  let c = mk_cost 11.0 19584 96 in
  let d = Leon2.deltas ~base c in
  check_float "rho" 10.0 d.Dse.Cost.rho;
  check_float "lambda" 1.0 d.Dse.Cost.lambda;
  check_float "beta" 10.0 d.Dse.Cost.beta

let test_cost_objective () =
  let d = { Dse.Cost.rho = -2.0; lambda = 1.0; beta = 3.0 } in
  check_float "runtime weights" ((100.0 *. -2.0) +. 4.0)
    (Dse.Cost.objective Dse.Cost.runtime_weights d);
  check_float "resource weights" (-2.0 +. 400.0)
    (Dse.Cost.objective Dse.Cost.resource_weights d);
  check_float "runtime only" (-200.0)
    (Dse.Cost.objective Dse.Cost.runtime_only d)

let test_cost_headroom () =
  let base = mk_cost 10.0 14992 82 in
  check_bool "luts headroom ~60.96" true
    (Float.abs (Leon2.headroom_luts base -. 60.958) < 0.01);
  check_bool "bram headroom 48.75" true
    (Float.abs (Leon2.headroom_brams base -. 48.75) < 0.01)

(* --- Measure (dcache dims: cheap) --- *)

let dcache_model = lazy (Leon2.Measure.build ~dims:Arch.Param.dcache_size_dims Apps.Registry.blastn)

let test_measure_dims () =
  let m = Lazy.force dcache_model in
  check_int "8 rows for dcache ways+size" 8 (List.length m.Leon2.Measure.rows);
  List.iter
    (fun (r : Leon2.Measure.row) ->
      check_bool "group restricted" true
        (List.mem r.Leon2.Measure.var.Arch.Param.group Arch.Param.dcache_size_dims))
    m.Leon2.Measure.rows

let test_measure_base () =
  let m = Lazy.force dcache_model in
  check_int "base LUTs" 14992 m.Leon2.Measure.base.Dse.Cost.resources.Synth.Resource.luts;
  check_int "base BRAM" 82 m.Leon2.Measure.base.Dse.Cost.resources.Synth.Resource.brams

let test_measure_signs () =
  (* Bigger dcache: negative rho (faster), positive beta (more BRAM). *)
  let m = Lazy.force dcache_model in
  let r32 = Leon2.Measure.row m 19 in
  check_bool "32KB speeds BLASTN up" true (r32.Leon2.Measure.deltas.Dse.Cost.rho < 0.0);
  check_bool "32KB costs BRAM" true (r32.Leon2.Measure.deltas.Dse.Cost.beta > 30.0);
  let r1 = Leon2.Measure.row m 15 in
  check_bool "1KB slows BLASTN" true (r1.Leon2.Measure.deltas.Dse.Cost.rho > 0.0);
  check_bool "1KB saves BRAM" true (r1.Leon2.Measure.deltas.Dse.Cost.beta < 0.0)

let test_measure_row_lookup () =
  let m = Lazy.force dcache_model in
  match Leon2.Measure.row m 23 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "row 23 (fast jump) is outside dcache dims"

let test_measure_noise_deterministic () =
  let a = Leon2.Measure.measure ~noise:0.005 Apps.Registry.arith Arch.Config.base in
  let b = Leon2.Measure.measure ~noise:0.005 Apps.Registry.arith Arch.Config.base in
  check_int "noise is a function of the configuration"
    a.Dse.Cost.resources.Synth.Resource.luts
    b.Dse.Cost.resources.Synth.Resource.luts

(* --- Formulate --- *)

let test_formulate_structure () =
  let m = Lazy.force dcache_model in
  let p = Leon2.Formulate.make Dse.Cost.runtime_only m in
  check_int "8 variables" 8 p.Optim.Binlp.nvars;
  check_int "2 SOS1 groups (ways, sizes)" 2 (List.length p.Optim.Binlp.groups);
  (* no replacement vars in dims: couplings vanish; 2 resource rows *)
  check_int "2 constraints" 2 (List.length p.Optim.Binlp.constraints)

let full_model = lazy (Leon2.Measure.build Apps.Registry.blastn)

let test_formulate_full () =
  let m = Lazy.force full_model in
  let p = Leon2.Formulate.make Dse.Cost.runtime_weights m in
  check_int "52 variables" 52 p.Optim.Binlp.nvars;
  (* 8 multi-member SOS1 groups, as in the paper's Section 4 *)
  check_int "8 SOS1 groups" 8 (List.length p.Optim.Binlp.groups);
  (* 4 couplings + LUT + BRAM *)
  check_int "6 constraints" 6 (List.length p.Optim.Binlp.constraints)

let test_formulate_prediction_additivity () =
  (* For variables not involved in cache products, predicted deltas are
     plain sums of the measured rows. *)
  let m = Lazy.force full_model in
  let v23 = Arch.Param.var 23 and v24 = Arch.Param.var 24 in
  let d = Leon2.Formulate.predicted_deltas m [ v23; v24 ] in
  let r23 = Leon2.Measure.row m 23 and r24 = Leon2.Measure.row m 24 in
  check_bool "rho adds" true
    (Float.abs
       (d.Dse.Cost.rho
       -. (r23.Leon2.Measure.deltas.Dse.Cost.rho
          +. r24.Leon2.Measure.deltas.Dse.Cost.rho))
    < 1e-9)

let test_formulate_product_prediction () =
  (* ways=2 and size=32 together: BRAM prediction uses the product form
     (1 + x12)*(beta_32KB), plus the linear ways term — matching the
     true additive per-way resource cost exactly. *)
  let m = Lazy.force full_model in
  let v12 = Arch.Param.var 12 and v19 = Arch.Param.var 19 in
  let d = Leon2.Formulate.predicted_deltas m [ v12; v19 ] in
  let config = Arch.Param.apply_all Arch.Config.base [ v12; v19 ] in
  let actual = Synth.Estimate.config config in
  let actual_beta =
    Synth.Resource.bram_percent actual
    -. Synth.Resource.bram_percent m.Leon2.Measure.base.Dse.Cost.resources
  in
  check_bool "nonlinear BRAM prediction within 1 point of truth" true
    (Float.abs (d.Dse.Cost.beta -. actual_beta) < 1.0)

let test_formulate_linear_variant_differs () =
  let m = Lazy.force full_model in
  let v12 = Arch.Param.var 12 and v19 = Arch.Param.var 19 in
  let nl = Leon2.Formulate.predicted_deltas m [ v12; v19 ] in
  let lin =
    Leon2.Formulate.predicted_deltas
      ~variant:{ Dse.Stack.lut_nonlinear = false; bram_linear = true }
      m [ v12; v19 ]
  in
  (* The linear model misses the ways x size interaction and
     underestimates BRAM, as the paper's BRAM%-lin rows show. *)
  check_bool "linear underestimates" true (lin.Dse.Cost.beta < nl.Dse.Cost.beta)

(* --- Optimizer on the Section 5 study --- *)

let test_optimizer_dcache_blastn () =
  let m = Lazy.force dcache_model in
  let o = Leon2.Optimizer.run_with_model ~weights:Dse.Cost.runtime_only m in
  (* The paper's pick: 1 way of 32 KB. *)
  check_int "ways" 1 o.Leon2.Optimizer.config.Arch.Config.dcache.Arch.Config.ways;
  check_int "way KB" 32 o.Leon2.Optimizer.config.Arch.Config.dcache.Arch.Config.way_kb

let test_optimizer_near_optimal () =
  (* Section 5's claim: the optimizer's pick is near the exhaustive
     optimum (the paper found a 0.02% runtime difference). *)
  let m = Lazy.force dcache_model in
  let o = Leon2.Optimizer.run_with_model ~weights:Dse.Cost.runtime_only m in
  let sweep = Leon2.Exhaustive.geometry_sweep Apps.Registry.blastn in
  let best = Leon2.Exhaustive.best_runtime sweep in
  match best.Leon2.Exhaustive.cost with
  | None -> Alcotest.fail "exhaustive best must be feasible"
  | Some c ->
      let gap =
        (o.Leon2.Optimizer.actual.Dse.Cost.seconds -. c.Dse.Cost.seconds)
        /. c.Dse.Cost.seconds
      in
      check_bool "within 0.5% of exhaustive optimum" true
        (gap >= 0.0 && gap < 0.005)

let test_optimizer_solution_feasible () =
  let m = Lazy.force dcache_model in
  let o = Leon2.Optimizer.run_with_model ~weights:Dse.Cost.runtime_weights m in
  check_bool "configuration valid" true (Arch.Config.is_valid o.Leon2.Optimizer.config);
  check_bool "fits the device" true
    (Synth.Resource.fits o.Leon2.Optimizer.actual.Dse.Cost.resources)

let test_optimizer_weights_tradeoff () =
  (* Resource weights must never pick a configuration with more chip
     cost than the runtime-weights pick, and vice versa for runtime. *)
  let m = Lazy.force dcache_model in
  let rt = Leon2.Optimizer.run_with_model ~weights:Dse.Cost.runtime_weights m in
  let rc = Leon2.Optimizer.run_with_model ~weights:Dse.Cost.resource_weights m in
  check_bool "resource pick uses fewer resources" true
    (Synth.Resource.chip_cost rc.Leon2.Optimizer.actual.Dse.Cost.resources
    <= Synth.Resource.chip_cost rt.Leon2.Optimizer.actual.Dse.Cost.resources);
  check_bool "runtime pick is at least as fast" true
    (rt.Leon2.Optimizer.actual.Dse.Cost.seconds
    <= rc.Leon2.Optimizer.actual.Dse.Cost.seconds)

let test_optimizer_arith_ignores_dcache () =
  let o =
    Leon2.Optimizer.run ~dims:Arch.Param.dcache_size_dims
      ~weights:Dse.Cost.runtime_weights Apps.Registry.arith
  in
  (* Nothing to gain: with w2 > 0 the optimizer shrinks the dcache
     instead (resource savings at zero runtime cost). *)
  check_bool "dcache not grown" true
    (o.Leon2.Optimizer.config.Arch.Config.dcache.Arch.Config.way_kb <= 4)

(* --- Exhaustive --- *)

let test_exhaustive_counts () =
  let points = Leon2.Exhaustive.geometry_sweep Apps.Registry.blastn in
  check_int "28 points" 28 (List.length points);
  let feasible =
    List.length (List.filter (fun p -> p.Leon2.Exhaustive.cost <> None) points)
  in
  check_int "19 feasible, as in Figure 2" 19 feasible

let test_exhaustive_optimum_matches_paper_pick () =
  let points = Leon2.Exhaustive.geometry_sweep Apps.Registry.blastn in
  let best = Leon2.Exhaustive.best_runtime points in
  let d = best.Leon2.Exhaustive.config.Arch.Config.dcache in
  (* Paper Figure 2: optimal runtime at 2 x 16 KB. *)
  check_int "ways" 2 d.Arch.Config.ways;
  check_int "way KB" 16 d.Arch.Config.way_kb

(* --- Full end-to-end (the headline result) --- *)

let test_full_runtime_optimization_blastn () =
  let m = Lazy.force full_model in
  let o = Leon2.Optimizer.run_with_model ~weights:Dse.Cost.runtime_weights m in
  let base = m.Leon2.Measure.base.Dse.Cost.seconds in
  let gain = 100.0 *. (base -. o.Leon2.Optimizer.actual.Dse.Cost.seconds) /. base in
  (* Paper Section 6.1: BLASTN improves 11.59%; ours lands close. *)
  check_bool (Printf.sprintf "gain %.2f%% in 8..16%%" gain) true
    (gain > 8.0 && gain < 16.0);
  (* The application-specific picks of Figure 5. *)
  let c = o.Leon2.Optimizer.config in
  check_int "32KB dcache capacity" 32
    (c.Arch.Config.dcache.Arch.Config.ways * c.Arch.Config.dcache.Arch.Config.way_kb);
  check_bool "multiplier upgraded" true
    (c.Arch.Config.iu.Arch.Config.multiplier = Arch.Config.Mul_32x32);
  check_bool "icc hold disabled" true (not c.Arch.Config.iu.Arch.Config.icc_hold);
  check_bool "divider dropped (BLASTN never divides)" true
    (c.Arch.Config.iu.Arch.Config.divider = Arch.Config.Div_none)

let test_prediction_tracks_actual () =
  (* The linear model's runtime prediction should be within a few
     percent of the actual build for BLASTN (paper: 9.35 vs 9.37). *)
  let m = Lazy.force full_model in
  let o = Leon2.Optimizer.run_with_model ~weights:Dse.Cost.runtime_weights m in
  let err =
    Float.abs
      (o.Leon2.Optimizer.predicted.Leon2.Optimizer.seconds
      -. o.Leon2.Optimizer.actual.Dse.Cost.seconds)
    /. o.Leon2.Optimizer.actual.Dse.Cost.seconds
  in
  check_bool "prediction within 5%" true (err < 0.05)

let () =
  Alcotest.run "dse"
    [
      ( "cost",
        [
          Alcotest.test_case "deltas" `Quick test_cost_deltas;
          Alcotest.test_case "objective" `Quick test_cost_objective;
          Alcotest.test_case "headroom" `Quick test_cost_headroom;
        ] );
      ( "measure",
        [
          Alcotest.test_case "dims restriction" `Quick test_measure_dims;
          Alcotest.test_case "base cost" `Quick test_measure_base;
          Alcotest.test_case "delta signs" `Quick test_measure_signs;
          Alcotest.test_case "row lookup" `Quick test_measure_row_lookup;
          Alcotest.test_case "noise determinism" `Quick test_measure_noise_deterministic;
        ] );
      ( "formulate",
        [
          Alcotest.test_case "dcache structure" `Quick test_formulate_structure;
          Alcotest.test_case "full structure" `Quick test_formulate_full;
          Alcotest.test_case "prediction additivity" `Quick test_formulate_prediction_additivity;
          Alcotest.test_case "product prediction" `Quick test_formulate_product_prediction;
          Alcotest.test_case "linear variant" `Quick test_formulate_linear_variant_differs;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "dcache pick (paper fig 3)" `Quick test_optimizer_dcache_blastn;
          Alcotest.test_case "near-optimality (paper s5)" `Quick test_optimizer_near_optimal;
          Alcotest.test_case "solution feasible" `Quick test_optimizer_solution_feasible;
          Alcotest.test_case "weights tradeoff" `Quick test_optimizer_weights_tradeoff;
          Alcotest.test_case "arith ignores dcache" `Quick test_optimizer_arith_ignores_dcache;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "sweep counts" `Quick test_exhaustive_counts;
          Alcotest.test_case "optimum = paper pick" `Quick test_exhaustive_optimum_matches_paper_pick;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "runtime optimization (fig 5)" `Slow test_full_runtime_optimization_blastn;
          Alcotest.test_case "prediction accuracy" `Slow test_prediction_tracks_actual;
        ] );
    ]

(* Tests for the four benchmark applications: correctness (interpreter
   vs compiled/simulated), determinism, and the cost signatures the
   paper's experiments rely on. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let base = Arch.Config.base

let with_dcache f = { base with Arch.Config.dcache = f base.Arch.Config.dcache }
let with_iu f = { base with Arch.Config.iu = f base.Arch.Config.iu }

let seconds app config = Apps.Registry.seconds ~config app

(* Expected checksums, computed once with the reference interpreter and
   pinned here as regressions: a change to workloads, the language
   semantics, or the compiler that alters any benchmark's answer must
   be noticed. *)
let expected_checksums =
  [ ("blastn", 0x26a2cd8); ("drr", 0xbc1abe55); ("frag", 0x445e81a5); ("arith", 0x6dee1fac) ]

let test_checksums_pinned () =
  List.iter
    (fun (name, expected) ->
      let app = Apps.Registry.find name in
      check_int (name ^ " simulator checksum") expected
        (Apps.Registry.run app).Sim.Machine.checksum)
    expected_checksums

let test_interp_agrees () =
  (* The interpreter run also certifies every array access in-bounds. *)
  List.iter
    (fun app ->
      check_int
        (app.Apps.Registry.name ^ " interp = sim")
        (Apps.Registry.interp_checksum app)
        (Apps.Registry.run app).Sim.Machine.checksum)
    Apps.Registry.all

let test_valid_programs () =
  List.iter
    (fun app ->
      match Minic.Check.check app.Apps.Registry.source with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "%s: %s" app.Apps.Registry.name (String.concat "; " es))
    Apps.Registry.all

let test_base_runtime_scale () =
  (* Scaled runtimes sit within 2% of the paper's reported defaults. *)
  List.iter
    (fun app ->
      let s = Apps.Registry.seconds app in
      let p = app.Apps.Registry.paper_base_seconds in
      check_bool
        (Printf.sprintf "%s: %.2fs within 2%% of paper %.2fs"
           app.Apps.Registry.name s p)
        true
        (Float.abs (s -. p) /. p < 0.02))
    Apps.Registry.all

let test_determinism () =
  List.iter
    (fun app ->
      let a = (Apps.Registry.run app).Sim.Machine.profile.Sim.Profiler.cycles in
      let b = (Apps.Registry.run app).Sim.Machine.profile.Sim.Profiler.cycles in
      check_int (app.Apps.Registry.name ^ " deterministic") a b)
    Apps.Registry.all

(* --- Cost signatures --- *)

let test_blastn_dcache_monotone () =
  let app = Apps.Registry.blastn in
  let t kb = seconds app (with_dcache (fun d -> { d with Arch.Config.way_kb = kb })) in
  let t1 = t 1 and t4 = t 4 and t8 = t 8 and t16 = t 16 and t32 = t 32 in
  check_bool "1KB slower than base" true (t1 > t4);
  check_bool "8KB faster than base" true (t8 < t4);
  check_bool "16KB faster than 8KB" true (t16 < t8);
  check_bool "32KB faster than 16KB" true (t32 < t16);
  (* the paper's gain at 32 KB is a few percent, not an order *)
  let gain = (t4 -. t32) /. t4 in
  check_bool "32KB gain in 1..6% band" true (gain > 0.01 && gain < 0.06)

let test_blastn_capacity_plateau () =
  (* 1x32 KB and 2x16 KB have the same capacity and the same runtime
     plateau (paper Figure 2: both 10.22 s). *)
  let app = Apps.Registry.blastn in
  let a = seconds app (with_dcache (fun d -> { d with Arch.Config.way_kb = 32 })) in
  let b =
    seconds app (with_dcache (fun d -> { d with Arch.Config.ways = 2; way_kb = 16 }))
  in
  check_bool "plateau" true (Float.abs (a -. b) /. a < 0.003)

let test_drr_dcache_strongest () =
  (* DRR has the largest relative dcache gain of the four (the paper's
     19.4% total gain is dominated by the cache). *)
  let gain app =
    let t32 =
      seconds app (with_dcache (fun d -> { d with Arch.Config.way_kb = 32 }))
    in
    let t4 = Apps.Registry.seconds app in
    (t4 -. t32) /. t4
  in
  let drr = gain Apps.Registry.drr in
  check_bool "drr gain > blastn gain" true (drr > gain Apps.Registry.blastn);
  check_bool "drr gain > frag gain" true (drr > gain Apps.Registry.frag);
  check_bool "drr gain 5..15%" true (drr > 0.05 && drr < 0.15)

let test_arith_dcache_insensitive () =
  (* Paper Figure 4: "No effect, as application is not data intensive". *)
  let app = Apps.Registry.arith in
  let t4 = Apps.Registry.seconds app in
  List.iter
    (fun kb ->
      let t = seconds app (with_dcache (fun d -> { d with Arch.Config.way_kb = kb })) in
      check_bool (Printf.sprintf "%dKB identical" kb) true (t = t4))
    [ 1; 2; 8; 16; 32 ]

let test_multiplier_helps_all () =
  List.iter
    (fun app ->
      let fast =
        seconds app
          (with_iu (fun u -> { u with Arch.Config.multiplier = Arch.Config.Mul_32x32 }))
      in
      let b = Apps.Registry.seconds app in
      check_bool (app.Apps.Registry.name ^ " m32x32 faster") true (fast < b);
      check_bool
        (app.Apps.Registry.name ^ " gain under 10%")
        true
        ((b -. fast) /. b < 0.10))
    Apps.Registry.all

let test_divider_only_matters_for_arith () =
  List.iter
    (fun app ->
      let soft =
        seconds app
          (with_iu (fun u -> { u with Arch.Config.divider = Arch.Config.Div_none }))
      in
      let b = Apps.Registry.seconds app in
      if app.Apps.Registry.name = "arith" then
        check_bool "software division is catastrophic for arith" true
          (soft > b *. 1.5)
      else
        check_bool (app.Apps.Registry.name ^ " indifferent to divider") true
          (Float.abs (soft -. b) /. b < 0.001))
    Apps.Registry.all

let test_icc_hold_costs_time () =
  (* Disabling the ICC hold logic speeds every benchmark up a little,
     the effect the paper measured on BLASTN (Figure 6: 10.60->10.24). *)
  List.iter
    (fun app ->
      let off = seconds app (with_iu (fun u -> { u with Arch.Config.icc_hold = false })) in
      let b = Apps.Registry.seconds app in
      check_bool (app.Apps.Registry.name ^ " faster without hold") true (off < b);
      check_bool (app.Apps.Registry.name ^ " gain under 8%") true ((b -. off) /. b < 0.08))
    Apps.Registry.all

let test_icache_insensitive () =
  (* All four applications fit their code in 2 KB of icache; the paper's
     optimizer shrinks the icache without runtime loss. *)
  List.iter
    (fun app ->
      let small =
        seconds app
          { base with Arch.Config.icache = { base.Arch.Config.icache with way_kb = 2 } }
      in
      let b = Apps.Registry.seconds app in
      check_bool (app.Apps.Registry.name ^ " 2KB icache free") true
        (Float.abs (small -. b) /. b < 0.001))
    Apps.Registry.all

let test_code_sizes () =
  (* Small kernels, as in the paper (77-163 source lines each); they
     must fit comfortably in a 2 KB icache but be nontrivial. *)
  List.iter
    (fun app ->
      let n = Array.length (Lazy.force app.Apps.Registry.program).Isa.Program.code in
      check_bool
        (Printf.sprintf "%s: %d insns in [40, 512]" app.Apps.Registry.name n)
        true
        (n >= 40 && n <= 512))
    Apps.Registry.all

let test_registry_lookup () =
  check_bool "find is case-insensitive" true
    (Apps.Registry.find "BLASTN" == Apps.Registry.blastn);
  check_int "four benchmarks" 4 (List.length Apps.Registry.all);
  match Apps.Registry.find "nonesuch" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_workload_determinism () =
  let a = Apps.Workload.dna ~seed:42 ~len:100 in
  let b = Apps.Workload.dna ~seed:42 ~len:100 in
  let c = Apps.Workload.dna ~seed:43 ~len:100 in
  check_bool "same seed, same data" true (a = b);
  check_bool "different seed, different data" true (a <> c);
  Array.iter (fun x -> check_bool "bases in 0..3" true (x >= 0 && x <= 3)) a

let test_lcg_matches_benchmarks () =
  (* The in-benchmark LCG recurrence equals Workload.lcg_next. *)
  let x = 0x5EED in
  let y = Apps.Workload.lcg_next x in
  check_int "lcg step" (((x * 1103515245) + 12345) land 0x7FFFFFFF) y;
  let s = Apps.Workload.lcg_stream ~seed:x ~len:3 in
  check_int "stream head" y s.(0);
  check_int "stream next" (Apps.Workload.lcg_next y) s.(1)

(* --- Extra kernels (parsed from concrete syntax) --- *)

let test_extra_interp_agrees () =
  List.iter
    (fun app ->
      check_int
        (app.Apps.Registry.name ^ " interp = sim")
        (Apps.Registry.interp_checksum app)
        (Apps.Registry.run app).Sim.Machine.checksum)
    Apps.Extra.all

let test_extra_rtr_cache_hungry () =
  (* The trie walk touches 32 KB of level-2 blocks at random: growing
     the dcache helps substantially. *)
  let app = Apps.Extra.rtr in
  let t4 = Apps.Registry.seconds app in
  let t32 = seconds app (with_dcache (fun d -> { d with Arch.Config.way_kb = 32 })) in
  check_bool "32KB much faster" true ((t4 -. t32) /. t4 > 0.05)

let test_extra_dct_mult_bound () =
  (* 8192 multiplies per block: the multiplier dominates, the dcache is
     nearly irrelevant. *)
  let app = Apps.Extra.dct in
  let t = Apps.Registry.seconds app in
  let tm =
    seconds app
      (with_iu (fun u -> { u with Arch.Config.multiplier = Arch.Config.Mul_32x32 }))
  in
  let tc = seconds app (with_dcache (fun d -> { d with Arch.Config.way_kb = 32 })) in
  check_bool "multiplier gain over 10%" true ((t -. tm) /. t > 0.10);
  check_bool "dcache gain under 2%" true (Float.abs (t -. tc) /. t < 0.02)

let test_extra_qsort_windows () =
  (* qsort recurses tens of frames deep: more register windows remove
     overflow traps and cycles — the only kernel where the windows
     parameter matters (the paper's four do not recurse). *)
  let app = Apps.Extra.qsort in
  let win w = with_iu (fun u -> { u with Arch.Config.reg_windows = w }) in
  let r8 = Apps.Registry.run ~config:(win 8) app in
  let r32 = Apps.Registry.run ~config:(win 32) app in
  check_bool "traps at 8 windows" true
    (r8.Sim.Machine.profile.Sim.Profiler.window_overflows > 0);
  check_int "no traps at 32 windows" 0
    r32.Sim.Machine.profile.Sim.Profiler.window_overflows;
  check_bool "32 windows faster" true
    (r32.Sim.Machine.profile.Sim.Profiler.cycles
    < r8.Sim.Machine.profile.Sim.Profiler.cycles);
  check_int "same checksum" r8.Sim.Machine.checksum r32.Sim.Machine.checksum;
  check_bool "sorted checksum nonzero" true (r8.Sim.Machine.checksum > 0)

let test_extra_optimizer_runs () =
  (* The full pipeline accepts extra apps out of the box. *)
  let o =
    Dse.Leon2.S.Optimizer.run ~dims:Arch.Param.dcache_size_dims
      ~weights:Dse.Cost.runtime_weights Apps.Extra.rtr
  in
  check_bool "valid recommendation" true
    (Arch.Config.is_valid o.Dse.Leon2.S.Optimizer.config)

let () =
  Alcotest.run "apps"
    [
      ( "correctness",
        [
          Alcotest.test_case "pinned checksums" `Quick test_checksums_pinned;
          Alcotest.test_case "interp agrees" `Quick test_interp_agrees;
          Alcotest.test_case "valid programs" `Quick test_valid_programs;
          Alcotest.test_case "runtime scale" `Quick test_base_runtime_scale;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "signatures",
        [
          Alcotest.test_case "blastn dcache monotone" `Quick test_blastn_dcache_monotone;
          Alcotest.test_case "blastn capacity plateau" `Quick test_blastn_capacity_plateau;
          Alcotest.test_case "drr strongest dcache" `Quick test_drr_dcache_strongest;
          Alcotest.test_case "arith dcache-insensitive" `Quick test_arith_dcache_insensitive;
          Alcotest.test_case "multiplier helps all" `Quick test_multiplier_helps_all;
          Alcotest.test_case "divider only for arith" `Quick test_divider_only_matters_for_arith;
          Alcotest.test_case "icc hold costs time" `Quick test_icc_hold_costs_time;
          Alcotest.test_case "icache insensitive" `Quick test_icache_insensitive;
          Alcotest.test_case "code sizes" `Quick test_code_sizes;
        ] );
      ( "extra",
        [
          Alcotest.test_case "interp agrees" `Quick test_extra_interp_agrees;
          Alcotest.test_case "rtr cache-hungry" `Quick test_extra_rtr_cache_hungry;
          Alcotest.test_case "dct mult-bound" `Quick test_extra_dct_mult_bound;
          Alcotest.test_case "qsort window traps" `Quick test_extra_qsort_windows;
          Alcotest.test_case "optimizer accepts extras" `Quick test_extra_optimizer_runs;
        ] );
      ( "workload",
        [
          Alcotest.test_case "registry lookup" `Quick test_registry_lookup;
          Alcotest.test_case "workload determinism" `Quick test_workload_determinism;
          Alcotest.test_case "lcg recurrence" `Quick test_lcg_matches_benchmarks;
        ] );
    ]

(* Tests for the FPGA resource model, including exact regression tests
   against every synthesis datum published in the paper. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_device () =
  check_int "LUTs" 38400 Synth.Device.luts;
  check_int "BRAMs" 160 Synth.Device.brams

let test_base_matches_paper () =
  (* Paper, Section 2.4: the default LEON configuration utilizes
     14,992 LUTs (39%) and 82 BRAM (51%). *)
  let r = Synth.Estimate.base in
  check_int "base LUTs" 14992 r.Synth.Resource.luts;
  check_int "base BRAM" 82 r.Synth.Resource.brams;
  check_int "base LUT%" 39 (Synth.Resource.lut_percent_int r);
  check_int "base BRAM%" 51 (Synth.Resource.bram_percent_int r)

let dcache_config ways way_kb =
  { Arch.Config.base with
    dcache = { Arch.Config.base.dcache with ways; way_kb } }

(* Paper Figure 2: BRAM% for every feasible dcache (ways, way-size)
   combination, with everything else at base. *)
let figure2_bram_rows =
  [
    (1, 1, 47); (1, 2, 48); (1, 4, 51); (1, 8, 56); (1, 16, 68); (1, 32, 90);
    (2, 1, 49); (2, 2, 51); (2, 4, 56); (2, 8, 68); (2, 16, 90);
    (3, 1, 51); (3, 2, 55); (3, 4, 62); (3, 8, 79);
    (4, 1, 53); (4, 2, 58); (4, 4, 68); (4, 8, 90);
  ]

let test_figure2_bram_exact () =
  List.iter
    (fun (ways, kb, expected) ->
      let r = Synth.Estimate.config (dcache_config ways kb) in
      check_int
        (Printf.sprintf "BRAM%% for %dx%dKB" ways kb)
        expected
        (Synth.Resource.bram_percent_int r))
    figure2_bram_rows

let test_figure2_lut_band () =
  (* The paper's LUT column stays in the 38-39% band across Figure 2. *)
  List.iter
    (fun (ways, kb, _) ->
      let r = Synth.Estimate.config (dcache_config ways kb) in
      let p = Synth.Resource.lut_percent_int r in
      check_bool (Printf.sprintf "LUT%% band %dx%d" ways kb) true (p = 38 || p = 39))
    figure2_bram_rows

let test_64kb_infeasible () =
  (* Paper, Figure 1: a 64 KB way needs more BRAM than the device has. *)
  let c = dcache_config 1 64 in
  check_bool "valid structurally" true (Arch.Config.is_valid c);
  check_bool "does not fit" false (Synth.Estimate.feasible c);
  check_bool "over 160 blocks" true
    ((Synth.Estimate.config c).Synth.Resource.brams > 160)

let test_figure6_lut_deltas () =
  (* Paper Figure 6 (BLASTN perturbation costs), LUT% column. *)
  let pct c = Synth.Resource.lut_percent_int (Synth.Estimate.config c) in
  let with_iu f = { Arch.Config.base with Arch.Config.iu = f Arch.Config.base.Arch.Config.iu } in
  check_int "nodivider -> 37%" 37
    (pct (with_iu (fun u -> { u with Arch.Config.divider = Arch.Config.Div_none })));
  check_int "m32x32 -> 40%" 40
    (pct (with_iu (fun u -> { u with Arch.Config.multiplier = Arch.Config.Mul_32x32 })));
  check_int "nofastjump -> 38%" 38
    (pct (with_iu (fun u -> { u with Arch.Config.fast_jump = false })));
  check_int "noicchold -> 39%" 39
    (pct (with_iu (fun u -> { u with Arch.Config.icc_hold = false })))

let test_line4_bram () =
  (* Halving the line size doubles the number of tags: +1 BRAM for a
     4 KB way, keeping the truncated percentage at 51 (Figure 6). *)
  let c =
    { Arch.Config.base with
      dcache = { Arch.Config.base.dcache with line_words = 4 } }
  in
  let r = Synth.Estimate.config c in
  check_int "one extra tag block" 83 r.Synth.Resource.brams;
  check_int "still 51%" 51 (Synth.Resource.bram_percent_int r)

let test_way_bram_formula () =
  check_int "4KB/8w way" 9 (Synth.Estimate.cache_way_brams ~way_kb:4 ~line_words:8);
  check_int "1KB/8w way" 3 (Synth.Estimate.cache_way_brams ~way_kb:1 ~line_words:8);
  check_int "32KB/8w way" 72 (Synth.Estimate.cache_way_brams ~way_kb:32 ~line_words:8);
  check_int "64KB/8w way" 144 (Synth.Estimate.cache_way_brams ~way_kb:64 ~line_words:8);
  check_int "4KB/4w way" 10 (Synth.Estimate.cache_way_brams ~way_kb:4 ~line_words:4)

let test_monotonicity () =
  (* More ways / bigger ways never cost less. *)
  let brams ways kb =
    (Synth.Estimate.config (dcache_config ways kb)).Synth.Resource.brams
  in
  List.iter
    (fun kb ->
      check_bool "ways monotone" true (brams 2 kb >= brams 1 kb);
      check_bool "ways monotone" true (brams 4 kb >= brams 3 kb))
    [ 1; 2; 4; 8 ];
  List.iter
    (fun ways ->
      check_bool "size monotone" true (brams ways 8 >= brams ways 4);
      check_bool "size monotone" true (brams ways 4 >= brams ways 1))
    [ 1; 2; 3; 4 ]

let test_multiplier_ordering () =
  let luts m =
    let c =
      { Arch.Config.base with
        Arch.Config.iu = { Arch.Config.base.Arch.Config.iu with multiplier = m } }
    in
    (Synth.Estimate.config c).Synth.Resource.luts
  in
  let open Arch.Config in
  let seq = [ Mul_none; Mul_iterative; Mul_16x16; Mul_16x16_pipe; Mul_32x8; Mul_32x16; Mul_32x32 ] in
  let costs = List.map luts seq in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | [ _ ] | [] -> true
  in
  check_bool "multiplier area strictly increasing" true (increasing costs)

let test_windows_cost_luts () =
  let luts w =
    let c =
      { Arch.Config.base with
        Arch.Config.iu = { Arch.Config.base.Arch.Config.iu with reg_windows = w } }
    in
    (Synth.Estimate.config c).Synth.Resource.luts
  in
  check_bool "more windows cost more LUTs" true (luts 32 > luts 16 && luts 16 > luts 8);
  check_int "no BRAM for windows"
    (Synth.Estimate.config Arch.Config.base).Synth.Resource.brams
    (Synth.Estimate.config
       { Arch.Config.base with
         Arch.Config.iu = { Arch.Config.base.Arch.Config.iu with reg_windows = 32 } })
      .Synth.Resource.brams

let test_invalid_config_rejected () =
  let c =
    { Arch.Config.base with
      dcache = { Arch.Config.base.dcache with replacement = Arch.Config.Lru } }
  in
  match Synth.Estimate.config c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_all_perturbations_costed () =
  (* Every one-at-a-time perturbation that is structurally valid gets a
     finite, positive resource estimate; only 32 KB caches approach the
     BRAM limit. *)
  List.iter
    (fun (v, c) ->
      if Arch.Config.is_valid c then begin
        let r = Synth.Estimate.config c in
        check_bool (v.Arch.Param.label ^ " fits") true (Synth.Resource.fits r);
        check_bool (v.Arch.Param.label ^ " positive") true (r.Synth.Resource.luts > 0)
      end)
    (Arch.Space.perturbations ())

let test_resource_arithmetic () =
  let a = { Synth.Resource.luts = 100; brams = 2 } in
  let b = { Synth.Resource.luts = 50; brams = 3 } in
  let s = Synth.Resource.add a b in
  check_int "luts add" 150 s.Synth.Resource.luts;
  check_int "brams add" 5 s.Synth.Resource.brams;
  let total = Synth.Resource.sum [ a; b; Synth.Resource.zero ] in
  check_bool "sum = add" true (total = s);
  check_bool "chip cost positive" true (Synth.Resource.chip_cost s > 0.0)

(* --- Netlist: structural elaboration cross-check --- *)

let test_netlist_equals_estimate_base () =
  let n = Synth.Netlist.resources (Synth.Netlist.elaborate Arch.Config.base) in
  check_bool "identical to closed form" true (n = Synth.Estimate.base)

let test_netlist_equals_estimate_perturbations () =
  List.iter
    (fun (v, c) ->
      if Arch.Config.is_valid c then
        check_bool v.Arch.Param.label true
          (Synth.Netlist.resources (Synth.Netlist.elaborate c)
          = Synth.Estimate.config c))
    (Arch.Space.perturbations ())

let netlist_cross_check_qtest =
  (* Random valid configurations: the two resource-model
     implementations must always agree. *)
  QCheck.Test.make ~count:300 ~name:"netlist total = closed-form estimate"
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let c = Dse.Target_leon2.random_config rng in
      Synth.Netlist.resources (Synth.Netlist.elaborate c)
      = Synth.Estimate.config c)

let test_netlist_structure () =
  let n = Synth.Netlist.elaborate Arch.Config.base in
  check_bool "has an integer unit" true (Synth.Netlist.find n "integer_unit" <> None);
  check_bool "has a dcache" true (Synth.Netlist.find n "dcache" <> None);
  check_bool "has a register file" true (Synth.Netlist.find n "register_file" <> None);
  check_bool "no ghost component" true (Synth.Netlist.find n "fpu" = None);
  (* one way in the base dcache, four after reconfiguration *)
  let four =
    { Arch.Config.base with
      dcache = { Arch.Config.base.Arch.Config.dcache with ways = 4 } }
  in
  match Synth.Netlist.find (Synth.Netlist.elaborate four) "dcache" with
  | Some (Synth.Netlist.Group { children; _ }) ->
      let ways =
        List.length
          (List.filter
             (function
               | Synth.Netlist.Group { name; _ } ->
                   String.length name >= 3 && String.sub name 0 3 = "way"
               | Synth.Netlist.Leaf _ -> false)
             children)
      in
      check_int "four way groups" 4 ways
  | _ -> Alcotest.fail "dcache group missing"

let test_netlist_report_prints () =
  let s =
    Fmt.str "%a" Synth.Netlist.pp (Synth.Netlist.elaborate Arch.Config.base)
  in
  check_bool "mentions leon2" true
    (String.length s > 100
    && (try ignore (Str.search_forward (Str.regexp_string "leon2") s 0); true
        with Not_found -> false))
  [@@warning "-3"]

let () =
  Alcotest.run "synth"
    [
      ( "calibration",
        [
          Alcotest.test_case "device" `Quick test_device;
          Alcotest.test_case "base = paper default" `Quick test_base_matches_paper;
          Alcotest.test_case "figure 2 BRAM exact" `Quick test_figure2_bram_exact;
          Alcotest.test_case "figure 2 LUT band" `Quick test_figure2_lut_band;
          Alcotest.test_case "figure 6 LUT deltas" `Quick test_figure6_lut_deltas;
          Alcotest.test_case "64KB infeasible" `Quick test_64kb_infeasible;
          Alcotest.test_case "line-4 tag cost" `Quick test_line4_bram;
          Alcotest.test_case "way BRAM formula" `Quick test_way_bram_formula;
        ] );
      ( "model",
        [
          Alcotest.test_case "monotonicity" `Quick test_monotonicity;
          Alcotest.test_case "multiplier ordering" `Quick test_multiplier_ordering;
          Alcotest.test_case "window cost" `Quick test_windows_cost_luts;
          Alcotest.test_case "invalid rejected" `Quick test_invalid_config_rejected;
          Alcotest.test_case "all perturbations" `Quick test_all_perturbations_costed;
          Alcotest.test_case "resource arithmetic" `Quick test_resource_arithmetic;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "base agreement" `Quick test_netlist_equals_estimate_base;
          Alcotest.test_case "perturbation agreement" `Quick test_netlist_equals_estimate_perturbations;
          QCheck_alcotest.to_alcotest netlist_cross_check_qtest;
          Alcotest.test_case "structure" `Quick test_netlist_structure;
          Alcotest.test_case "report prints" `Quick test_netlist_report_prints;
        ] );
    ]

open Leon2.S

let pf = Format.fprintf

(* --- Figure 1 --- *)

let print_fig1 ppf =
  pf ppf "Figure 1: LEON reconfigurable parameters@.";
  pf ppf "  %-22s %-10s %s@." "parameter" "default" "values";
  let c = Arch.Config.base in
  let cache_rows which (cc : Arch.Config.cache) =
    [
      (which ^ " ways (sets)", string_of_int cc.ways, "1-4");
      (which ^ " way size", Printf.sprintf "%dKB" cc.way_kb, "1,2,4,8,16,32,64KB");
      (which ^ " line size", string_of_int cc.line_words, "4,8 words");
      ( which ^ " replacement",
        Arch.Config.replacement_to_string cc.replacement,
        "random,LRR,LRU" );
    ]
  in
  let onoff b = if b then "enable" else "disable" in
  let rows =
    cache_rows "icache" c.icache
    @ cache_rows "dcache" c.dcache
    @ [
        ("dcache fast read", onoff c.dcache_fast_read, "enable/disable");
        ("dcache fast write", onoff c.dcache_fast_write, "enable/disable");
        ("fast jump", onoff c.iu.fast_jump, "enable/disable");
        ("ICC hold", onoff c.iu.icc_hold, "enable/disable");
        ("fast decode", onoff c.iu.fast_decode, "enable/disable");
        ("load delay", string_of_int c.iu.load_delay, "1,2 cycles");
        ("register windows", string_of_int c.iu.reg_windows, "8,16-32");
        ( "divider",
          Arch.Config.divider_to_string c.iu.divider,
          "radix2,none" );
        ( "multiplier",
          Arch.Config.multiplier_to_string c.iu.multiplier,
          "none,iterative,16x16(+pipe),32x8,32x16,32x32" );
        ("infer mult/div", string_of_bool c.infer_mult_div, "true/false");
      ]
  in
  List.iter (fun (p, d, v) -> pf ppf "  %-22s %-10s %s@." p d v) rows;
  pf ppf "  parameter values: %d (paper counts 79)@."
    Arch.Space.parameter_value_count;
  pf ppf "  one-at-a-time variables: %d@." Arch.Space.one_at_a_time_count;
  pf ppf
    "  exhaustive cross product: %d (paper reports 3,641,573,376 with a \
     coarser value accounting)@."
    Arch.Space.exhaustive_count;
  pf ppf "  structurally valid: %d@." Arch.Space.exhaustive_valid_count;
  pf ppf "  dcache-only exhaustive (paper Section 5): %d@."
    Arch.Space.dcache_exhaustive_full_count

(* --- Figure 2 --- *)

type fig2 = {
  points : Exhaustive.point list;
  optimal : Exhaustive.point;
}

let run_fig2 app =
  let points = Exhaustive.geometry_sweep app in
  { points; optimal = Exhaustive.best_runtime points }

let point_row ppf (p : Exhaustive.point) =
  let d = p.Exhaustive.config.Arch.Config.dcache in
  match p.Exhaustive.cost with
  | None ->
      pf ppf "  %4d %8d %12s %7s %7s  (exceeds device BRAM)@." d.ways d.way_kb
        "-" "-" "-"
  | Some c ->
      pf ppf "  %4d %8d %12.3f %6d%% %6d%%@." d.ways d.way_kb c.Cost.seconds
        (Synth.Resource.lut_percent_int c.Cost.resources)
        (Synth.Resource.bram_percent_int c.Cost.resources)

let print_fig2 ppf (f : fig2) =
  pf ppf "Figure 2: BLASTN exhaustive dcache ways x way-size@.";
  pf ppf "  %4s %8s %12s %7s %7s@." "ways" "KB/way" "runtime(s)" "LUTs" "BRAM";
  List.iter (point_row ppf) f.points;
  pf ppf "  runtime-optimal:@.";
  point_row ppf f.optimal;
  let p = Paper.figure2_optimal in
  pf ppf "  paper optimal: %dx%dKB at %.2fs (%d%% LUT, %d%% BRAM)@."
    p.Paper.ways p.Paper.way_kb p.Paper.seconds p.Paper.lut_pct p.Paper.bram_pct

(* --- Figure 3 --- *)

type fig3 = {
  model : Measure.model;
  outcome : Optimizer.outcome;
}

let run_fig3 app =
  let model = Measure.build ~dims:Arch.Param.dcache_size_dims app in
  let outcome = Optimizer.run_with_model ~weights:Cost.runtime_only model in
  { model; outcome }

let config_row ppf (config : Arch.Config.t) (c : Cost.t) =
  let d = config.Arch.Config.dcache in
  pf ppf "  %4d %8d %12.3f %6d%% %6d%%@." d.ways d.way_kb c.Cost.seconds
    (Synth.Resource.lut_percent_int c.Cost.resources)
    (Synth.Resource.bram_percent_int c.Cost.resources)

let print_fig3 ppf (f : fig3) =
  pf ppf "Figure 3: optimizer's dcache model for BLASTN (w1=100, w2=0)@.";
  pf ppf "  evaluated one-at-a-time configurations:@.";
  pf ppf "  %4s %8s %12s %7s %7s@." "ways" "KB/way" "runtime(s)" "LUTs" "BRAM";
  List.iter
    (fun (r : Measure.row) -> config_row ppf r.Measure.config r.Measure.cost)
    f.model.Measure.rows;
  pf ppf "  base configuration:@.";
  config_row ppf Arch.Config.base f.model.Measure.base;
  pf ppf "  selected:@.";
  config_row ppf f.outcome.Optimizer.config f.outcome.Optimizer.actual;
  let pw, pk = Paper.figure3_selected in
  pf ppf "  paper selected: %dx%dKB@." pw pk

(* --- Figure 4 --- *)

type fig4_row = {
  app : Apps.Registry.t;
  exhaustive_best : Exhaustive.point option;
  optimizer_pick : Optimizer.outcome;
}

let dcache_insensitive points =
  let seconds =
    List.filter_map
      (fun (p : Exhaustive.point) ->
        Option.map (fun c -> c.Cost.seconds) p.Exhaustive.cost)
      points
  in
  match seconds with
  | [] -> true
  | s :: rest ->
      List.for_all (fun t -> Float.abs (t -. s) /. s < 0.0005) rest

let run_fig4 () =
  List.map
    (fun app ->
      let points = Exhaustive.geometry_sweep app in
      let exhaustive_best =
        if dcache_insensitive points then None
        else Some (Exhaustive.best_runtime points)
      in
      let model = Measure.build ~dims:Arch.Param.dcache_size_dims app in
      let optimizer_pick =
        Optimizer.run_with_model ~weights:Cost.runtime_only model
      in
      { app; exhaustive_best; optimizer_pick })
    [ Apps.Registry.drr; Apps.Registry.frag; Apps.Registry.arith ]

let print_fig4 ppf rows =
  pf ppf "Figure 4: dcache optimization for DRR, FRAG, Arith (w1=100, w2=0)@.";
  List.iter
    (fun r ->
      pf ppf "  %s:@." r.app.Apps.Registry.name;
      (match r.exhaustive_best with
      | None -> pf ppf "  exhaustive: no effect, application is not data intensive@."
      | Some p ->
          pf ppf "  exhaustive best:@.";
          point_row ppf p);
      pf ppf "  optimizer pick:@.";
      config_row ppf r.optimizer_pick.Optimizer.config
        r.optimizer_pick.Optimizer.actual;
      match List.assoc_opt r.app.Apps.Registry.name
              (List.map (fun (n, sel, s) -> (n, (sel, s))) Paper.figure4)
      with
      | Some ((w, k), s) when not (Float.is_nan s) ->
          pf ppf "  paper optimizer pick: %dx%dKB at %.3fs@." w k s
      | Some _ -> pf ppf "  paper: no effect@."
      | None -> ())
    rows

(* --- Figures 5 and 7 --- *)

let print_paper_summary ppf (s : Paper.opt_summary) =
  pf ppf "  paper %s: %s@." s.Paper.app
    (String.concat ", "
       (List.map (fun (k, v) -> k ^ "=" ^ v) s.Paper.params));
  pf ppf
    "    base %.2fs, predicted %.2fs, actual %.2fs (LUTs %d%%, BRAM %d%%), \
     change %+.2f%%@."
    s.Paper.base_seconds s.Paper.predicted_seconds s.Paper.actual_seconds
    s.Paper.actual_lut_pct s.Paper.actual_bram_pct
    (100.0
    *. (s.Paper.actual_seconds -. s.Paper.base_seconds)
    /. s.Paper.base_seconds)

let run_weighted weights =
  List.map
    (fun app -> Optimizer.run ~weights app)
    Apps.Registry.all

let run_fig5 () = run_weighted Cost.runtime_weights
let run_fig7 () = run_weighted Cost.resource_weights

let print_weighted title paper ppf outcomes =
  pf ppf "%s@." title;
  List.iter
    (fun o ->
      Optimizer.print_outcome_summary ppf o;
      let name = o.Optimizer.model.Measure.app.Apps.Registry.name in
      match List.find_opt (fun s -> s.Paper.app = name) paper with
      | Some s -> print_paper_summary ppf s
      | None -> ())
    outcomes

let print_fig5 ppf outcomes =
  print_weighted
    "Figure 5: application runtime optimization (w1=100, w2=1)"
    Paper.figure5 ppf outcomes

let print_fig7 ppf outcomes =
  print_weighted "Figure 7: chip resource optimization (w1=1, w2=100)"
    Paper.figure7 ppf outcomes

(* --- Figure 6 --- *)

let fig6_index_of_label = function
  | "icachesetsz2" -> 5
  | "icachelinesz4" -> 9
  | "dcachesetsz32" -> 19
  | "dcachelinesz4" -> 20
  | "nofastjump" -> 23
  | "noicchold" -> 24
  | "nodivider" -> 28
  | "multiplierm32x32" -> 51
  | l -> invalid_arg ("Report.fig6: unknown paper label " ^ l)

let run_fig6 model =
  List.map
    (fun ((label, _, _, _) as paper_row) ->
      (Measure.row model (fig6_index_of_label label), paper_row))
    Paper.figure6

let print_fig6 ppf model =
  pf ppf "Figure 6: BLASTN one-at-a-time costs (ours vs paper)@.";
  pf ppf "  %-18s %10s %6s %6s   %10s %6s %6s@." "parameter" "runtime" "LUT%"
    "BRAM%" "paper-rt" "LUT%" "BRAM%";
  List.iter
    (fun ((r : Measure.row), (label, ps, plut, pbram)) ->
      pf ppf "  %-18s %10.3f %5d%% %5d%%   %10.2f %5d%% %5d%%@." label
        r.Measure.cost.Cost.seconds
        (Synth.Resource.lut_percent_int r.Measure.cost.Cost.resources)
        (Synth.Resource.bram_percent_int r.Measure.cost.Cost.resources)
        ps plut pbram)
    (run_fig6 model)

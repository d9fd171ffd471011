(* Cache tuning: the paper's Section 5 scaled-down study, on any of the
   four benchmarks.

   Compares the optimizer's data-cache recommendation (built from 8
   one-at-a-time measurements) against the true optimum found by
   exhaustively building all 28 ways x way-size geometries — the
   experiment that justifies the parameter-independence assumption.

   Run with:  dune exec examples/cache_tuning.exe [app]             *)

module Leon2 = Dse.Leon2.S

let () =
  let app =
    match Sys.argv with
    | [| _; name |] -> Apps.Registry.find name
    | _ -> Apps.Registry.drr
  in
  Format.printf "Data-cache tuning for %s@.@." app.Apps.Registry.name;

  (* Exhaustive baseline: 28 builds (the paper budgets 30 minutes of
     synthesis per build; our analytic model makes this instant). *)
  let points = Leon2.Exhaustive.geometry_sweep app in
  Format.printf "%4s %8s %12s %6s %6s@." "ways" "KB/way" "runtime(s)" "LUT%"
    "BRAM%";
  List.iter
    (fun (p : Leon2.Exhaustive.point) ->
      let d = p.Leon2.Exhaustive.config.Arch.Config.dcache in
      match p.Leon2.Exhaustive.cost with
      | None -> Format.printf "%4d %8d %12s  (does not fit)@." d.ways d.way_kb "-"
      | Some c ->
          Format.printf "%4d %8d %12.3f %5d%% %5d%%@." d.ways d.way_kb
            c.Dse.Cost.seconds
            (Synth.Resource.lut_percent_int c.Dse.Cost.resources)
            (Synth.Resource.bram_percent_int c.Dse.Cost.resources))
    points;

  let best = Leon2.Exhaustive.best_runtime points in
  let bd = best.Leon2.Exhaustive.config.Arch.Config.dcache in
  Format.printf "@.Exhaustive optimum: %d ways x %d KB@." bd.ways bd.way_kb;

  (* The optimizer, restricted to the same two dimensions, measuring
     only 8 configurations instead of 28. *)
  let outcome =
    Leon2.Optimizer.run ~dims:Arch.Param.dcache_size_dims
      ~weights:Dse.Cost.runtime_only app
  in
  let od = outcome.Leon2.Optimizer.config.Arch.Config.dcache in
  Format.printf "Optimizer pick:     %d ways x %d KB@." od.ways od.way_kb;

  match best.Leon2.Exhaustive.cost with
  | Some c ->
      let gap =
        100.0
        *. (outcome.Leon2.Optimizer.actual.Dse.Cost.seconds
           -. c.Dse.Cost.seconds)
        /. c.Dse.Cost.seconds
      in
      Format.printf
        "Runtime gap to the exhaustive optimum: %.3f%% (the paper found \
         0.02%% for BLASTN)@."
        gap
  | None -> ()

(* Performance-resource tradeoff: sweep the objective weights between
   the paper's two extremes (runtime-dominant w1=100/w2=1 and
   resource-dominant w1=1/w2=100) and map the Pareto frontier the
   developer can choose from — the "performance-resource tradeoffs in
   hours" workflow of the paper's conclusion.

   Run with:  dune exec examples/pareto_sweep.exe [app]              *)

module Leon2 = Dse.Leon2.S

let weight_points =
  [ (100.0, 0.0); (100.0, 1.0); (20.0, 5.0); (5.0, 20.0); (1.0, 100.0); (0.0, 100.0) ]

let points = ref []

let () =
  let app =
    match Sys.argv with
    | [| _; name |] -> Apps.Registry.find name
    | _ -> Apps.Registry.blastn
  in
  Format.printf "Weight sweep for %s@.@." app.Apps.Registry.name;

  (* One model serves every weighting: measurement dominates cost, the
     exact solve is milliseconds. *)
  let model = Leon2.Measure.build app in
  Format.printf "%8s %8s %12s %7s %7s %9s  %s@." "w1" "w2" "runtime(s)" "LUT%"
    "BRAM%" "chipcost" "reconfigured parameters";
  List.iter
    (fun (w1, w2) ->
      let outcome =
        Leon2.Optimizer.run_with_model ~weights:{ Dse.Cost.w1; w2 } model
      in
      let a = outcome.Leon2.Optimizer.actual in
      let params =
        Dse.Target_leon2.changed_params outcome.Leon2.Optimizer.config
        |> List.map (fun (k, v) -> k ^ "=" ^ v)
        |> String.concat ", "
      in
      points := (Synth.Resource.chip_cost a.Dse.Cost.resources, a.Dse.Cost.seconds) :: !points;
      Format.printf "%8.1f %8.1f %12.3f %6d%% %6d%% %9.1f  %s@." w1 w2
        a.Dse.Cost.seconds
        (Synth.Resource.lut_percent_int a.Dse.Cost.resources)
        (Synth.Resource.bram_percent_int a.Dse.Cost.resources)
        (Synth.Resource.chip_cost a.Dse.Cost.resources)
        params)
    weight_points;
  Format.printf "@.";
  Dse.Plot.xy ~x_label:"chip cost (LUT%+BRAM%)" ~y_label:"runtime (s)"
    Format.std_formatter !points;
  Format.printf
    "@.Each row is the exact BINLP optimum for its weighting; runtime falls \
     and chip cost rises as w1 grows.@."

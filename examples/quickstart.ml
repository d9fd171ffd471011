(* Quickstart: optimize the LEON2 microarchitecture for one application.

   Run with:  dune exec examples/quickstart.exe *)

module Leon2 = Dse.Leon2.S

let () =
  let app = Apps.Registry.blastn in

  (* 1. Execute the application on the default (base) configuration. *)
  let base = Leon2.Measure.measure app Arch.Config.base in
  Format.printf "%s on the base configuration: %a@." app.Apps.Registry.name
    Dse.Cost.pp base;

  (* 2. Run the automatic reconfiguration pipeline: one-at-a-time cost
     model -> BINLP -> exact solve -> decode -> verify by rebuild. *)
  let outcome = Leon2.Optimizer.run ~weights:Dse.Cost.runtime_weights app in

  (* 3. Inspect the recommendation. *)
  Format.printf "@.Recommended configuration:@.%a@.@." Arch.Config.pp
    outcome.Leon2.Optimizer.config;
  Leon2.Optimizer.print_outcome_summary Format.std_formatter outcome;

  let gain =
    100.0
    *. (base.Dse.Cost.seconds
       -. outcome.Leon2.Optimizer.actual.Dse.Cost.seconds)
    /. base.Dse.Cost.seconds
  in
  Format.printf "@.Runtime improved by %.2f%% over the base configuration.@."
    gain

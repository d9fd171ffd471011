open Leon2.S

type study = {
  exact : Optimizer.outcome;
  recast_selected : Arch.Param.var list;
  recast_config : Arch.Config.t;
  recast_actual : Cost.t;
  agrees : bool;
  recast_respects_truth : bool;
  exact_nodes_hint : string;
  milp_nodes : int;
}

let run ~weights model =
  let exact = Optimizer.run_with_model ~weights model in
  let problem = Formulate.make weights model in
  match Optim.Mccormick.solve problem with
  | None -> failwith "Convex.run: linearized model infeasible"
  | Some relaxed ->
      let recast_selected = Formulate.vars_of_solution model relaxed in
      let recast_config =
        Arch.Param.apply_all Arch.Config.base recast_selected
      in
      let recast_actual =
        Engine.eval_on (Engine.default ()) Target_leon2.probe model.Measure.app
          recast_config
      in
      {
        exact;
        recast_selected;
        recast_config;
        recast_actual;
        agrees =
          List.map (fun (v : Arch.Param.var) -> v.Arch.Param.index)
            recast_selected
          = List.map (fun (v : Arch.Param.var) -> v.Arch.Param.index)
              exact.Optimizer.selected;
        recast_respects_truth = Optim.Binlp.check problem relaxed.Optim.Binlp.x;
        exact_nodes_hint = "combinatorial B&B (exact)";
        milp_nodes = Optim.Milp.stats_nodes ();
      }

let print ppf s =
  let name = s.exact.Optimizer.model.Measure.app.Apps.Registry.name in
  Format.fprintf ppf "  %s:@." name;
  Format.fprintf ppf "    exact pick:  %a@." Optimizer.pp_selected
    s.exact.Optimizer.selected;
  Format.fprintf ppf "    recast pick: %a@." Optimizer.pp_selected
    s.recast_selected;
  Format.fprintf ppf
    "    agreement: %b; recast satisfies the true nonlinear constraints: %b@."
    s.agrees s.recast_respects_truth;
  Format.fprintf ppf
    "    exact actual: %a@.    recast actual: %a (LP-B&B nodes: %d)@." Cost.pp
    s.exact.Optimizer.actual Cost.pp s.recast_actual s.milp_nodes

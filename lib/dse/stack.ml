(* The paper's pipeline, functorized over a {!Target.S} backend.

   [Make (T)] instantiates the whole measure → formulate → solve →
   verify stack for one soft core.  {!Leon2.S} is the paper's own
   platform; additional backends such as the MicroBlaze-like core run
   the very same code paths.

   All percentage normalizations (lambda/beta in points of the device,
   resource headroom) are relative to the target's own device, so a
   small-device backend gets binding resource constraints instead of
   inheriting LEON2's headroom. *)

type variant = {
  lut_nonlinear : bool;
  bram_linear : bool;
}

let paper_variant = { lut_nonlinear = false; bram_linear = false }

let m_heuristic_builds =
  Obs.Metrics.Counter.v "heuristic.builds"
    ~help:"configurations built by heuristic searches"

let m_heuristic_pruned =
  Obs.Metrics.Counter.v "heuristic.pruned"
    ~help:"candidates skipped without simulating (static arguments)"

let m_schedule_phases =
  Obs.Metrics.Counter.v "dse.schedule.phases"
    ~help:"program phases detected across schedule solves"

let m_schedule_nodes =
  Obs.Metrics.Counter.v "dse.schedule.nodes"
    ~help:"branch-and-bound nodes explored by schedule solves"

let m_schedule_gain =
  Obs.Metrics.Gauge.v "dse.schedule.gain_pct"
    ~help:"last scheduled-vs-static runtime gain (percent, net of switches)"

(** The one exact solve: {!Optim.Binlp.solve} on the default pool's
    runner.  Returns the best solution, a node-limited incumbent
    included, and the number of nodes explored.
    @raise Failure if no assignment satisfies the constraints. *)
let solve ?objective_terms problem =
  let solved =
    Optim.Binlp.solve
      ~runner:(Pool.solver_runner (Pool.default ()))
      ?objective_terms problem
  in
  match solved.Optim.Binlp.best with
  | None -> failwith "BINLP infeasible"
  | Some solution -> (solution, solved.Optim.Binlp.nodes)

module Make (T : Target.S) = struct
  (* Device-relative percentages: identical to {!Synth.Resource}'s for
     the LEON2 instance (same device), target-specific otherwise. *)
  let lut_percent (r : Synth.Resource.t) =
    100.0 *. float_of_int r.Synth.Resource.luts /. float_of_int T.device_luts

  let bram_percent (r : Synth.Resource.t) =
    100.0 *. float_of_int r.Synth.Resource.brams /. float_of_int T.device_brams

  let lut_percent_int (r : Synth.Resource.t) =
    r.Synth.Resource.luts * 100 / T.device_luts

  let bram_percent_int (r : Synth.Resource.t) =
    r.Synth.Resource.brams * 100 / T.device_brams

  let fits (r : Synth.Resource.t) =
    r.Synth.Resource.luts <= T.device_luts
    && r.Synth.Resource.brams <= T.device_brams

  let deltas ~base (c : Cost.t) =
    {
      Cost.rho =
        100.0 *. (c.Cost.seconds -. base.Cost.seconds) /. base.Cost.seconds;
      lambda = lut_percent c.Cost.resources -. lut_percent base.Cost.resources;
      beta = bram_percent c.Cost.resources -. bram_percent base.Cost.resources;
    }

  let headroom_luts (c : Cost.t) = 100.0 -. lut_percent c.Cost.resources
  let headroom_brams (c : Cost.t) = 100.0 -. bram_percent c.Cost.resources

  (** The configuration a solver's selection encodes.
      @raise Failure if it breaks the target's validity rules. *)
  let decode selected =
    let config = T.apply_all T.base selected in
    match T.validate config with
    | Ok () -> config
    | Error m -> failwith (T.name ^ ": decoded configuration invalid: " ^ m)

  (** The perturb-one-at-a-time measurement harness, the paper's model
      building step: per decision variable, build the configuration
      that differs from base in just that parameter and record its
      percentage deltas, every evaluation through the shared
      {!Engine}.  Deltas are taken against [reference_config]: base,
      except where the perturbation is invalid there — LEON2 measures
      its 1-way-invalid replacement policies (LRR/LRU) at 2-way
      associativity against a plain 2-way cache, the own-dimension
      reading of the paper's model (the x10<=x1 couplings select them
      only with added ways).  [noise] adds a deterministic LUT error
      of at most that fraction of the device (0.005 = ±0.5 %), the
      place-and-route variance the paper's LUT columns carry.
      [build ?dims] keeps the given groups (default: all) and fans out
      under {!Engine.map}, identical to a sequential build.  Rebuild
      rows with [with_rows], never a record update, so [by_index]
      stays derived. *)
  module Measure = struct
    type row = {
      var : T.var;
      config : T.config;
      cost : Cost.t;
      deltas : Cost.deltas;
    }

    type model = {
      app : Apps.Registry.t;
      base : Cost.t;
      rows : row list;
      by_index : (int, row) Hashtbl.t;
    }

    let index_rows rows =
      let h = Hashtbl.create (max 16 (List.length rows)) in
      List.iter (fun r -> Hashtbl.replace h r.var.T.index r) rows;
      h

    let model_of app ~base rows = { app; base; rows; by_index = index_rows rows }
    let with_rows m rows = { m with rows; by_index = index_rows rows }

    (** @raise Invalid_argument if [config] is structurally invalid. *)
    let measure ?noise app config =
      Engine.eval_on ?noise (Engine.default ()) T.probe app config

    let reference_config = T.reference_config

    (** The variables of the given groups, in row order: the rows
        [build ~dims] measures, each at [var.apply (reference_config
        var)] against [reference_config var]. *)
    let vars_in dims = List.filter (fun v -> List.mem v.T.group dims) T.vars

    let build ?noise ?dims app =
      Obs.Span.with_span ~cat:"dse" "measure.build"
        ~attrs:[ ("app", Obs.Json.String app.Apps.Registry.name) ]
      @@ fun span ->
      (* Force the compiled program before any domain fan-out: Lazy is
         not domain-safe. *)
      ignore (Lazy.force app.Apps.Registry.program);
      let base = measure ?noise app T.base in
      let vars = vars_in (Option.value dims ~default:T.groups) in
      Obs.Span.add_attr span "perturbations" (Obs.Json.Int (List.length vars));
      let measure_var var =
        Obs.Span.with_span ~cat:"dse" "measure.perturbation"
          ~attrs:[ ("label", Obs.Json.String var.T.label) ]
        @@ fun vspan ->
        let reference = reference_config var in
        let config = var.T.apply reference in
        let cost = measure ?noise app config in
        let ref_cost =
          if T.equal reference T.base then base
          else measure ?noise app reference
        in
        Obs.Span.add_attr vspan "sim_cycles"
          (Obs.Json.Int
             (int_of_float (cost.Cost.seconds *. Sim.Machine.clock_hz)));
        Obs.Span.add_attr vspan "luts"
          (Obs.Json.Int cost.Cost.resources.Synth.Resource.luts);
        Obs.Span.add_attr vspan "brams"
          (Obs.Json.Int cost.Cost.resources.Synth.Resource.brams);
        (* Marginal deltas relative to the reference, expressed against
           the base runtime as the paper's percentages are. *)
        let d = deltas ~base:ref_cost cost in
        let rho =
          100.0 *. (cost.Cost.seconds -. ref_cost.Cost.seconds)
          /. base.Cost.seconds
        in
        { var; config = var.T.apply T.base; cost; deltas = { d with Cost.rho } }
      in
      model_of app ~base (Engine.map (Engine.default ()) measure_var vars)

    (** @raise Not_found if the variable is outside the model's dims. *)
    let row model index =
      match Hashtbl.find_opt model.by_index index with
      | Some r -> r
      | None -> raise Not_found
  end

  (** The paper's Section 4 BINLP over the decision variables:
      - objective [sum (w1 rho_i + w2 (lambda_i + beta_i)) x_i];
      - SOS1: at most one value per multi-valued parameter;
      - validity couplings [T.couplings] (LEON2: LRR needs 2 ways,
        [x10 <= x1]; LRU needs several, [x11 <= x1+x2+x3]; likewise
        for the dcache);
      - resources: extra LUT% and BRAM% within the base's headroom,
        each cache costing the {e product} of its ways term
        [(1 + x_w2 + 2 x_w3 + 3 x_w4)] and its per-way size deltas.
        The paper keeps LUTs linear and BRAMs nonlinear; [variant]
        swaps either (its "LUTs%-nonlin" and "BRAM%-lin" rows).
      There is one builder, [make_schedule]: a static configuration is
      the one-phase schedule, and [make] is that problem, solver
      variable [j] being model row [j] (energy adds its term to the
      objective entry by entry).  {!solve} solves either problem and
      {!decode} turns a selection into a configuration.
      [predicted_deltas] is the superposition estimate the solver
      believes: rho summed, lambda/beta by [variant]'s forms. *)
  module Formulate = struct
    (* Every helper takes one phase's slot lookup: [slot.(i)] is the
       solver variable of paper index [i], [-1] outside the model. *)
    let slot_of (vars : (int * Measure.row) list) =
      let slot = Array.make (T.var_count + 1) (-1) in
      List.iter
        (fun (j, (r : Measure.row)) -> slot.(r.Measure.var.T.index) <- j)
        vars;
      slot

    let var_in slot i = if slot.(i) < 0 then None else Some slot.(i)

    (* A model's deltas by paper index (zero outside the model). *)
    let deltas_of (model : Measure.model) =
      let zero = { Cost.rho = 0.0; lambda = 0.0; beta = 0.0 } in
      let d = Array.make (T.var_count + 1) zero in
      List.iter
        (fun (r : Measure.row) -> d.(r.Measure.var.T.index) <- r.Measure.deltas)
        model.Measure.rows;
      d

    (* A cache's ways factor: the explicit multipliers of [T.products]
       on top of the implicit single base way. *)
    let product_factor slot pairs =
      let coeffs =
        List.filter_map
          (fun (i, m) -> Option.map (fun j -> (j, m)) (var_in slot i))
          pairs
      in
      { Optim.Binlp.coeffs; const = 1.0 }

    let lin_of slot deltas get indices =
      let coeffs =
        List.filter_map
          (fun i ->
            let j = slot.(i) in
            if j < 0 then None else Some (j, get deltas.(i)))
          indices
      in
      { Optim.Binlp.coeffs; const = 0.0 }

    let range a b = List.init (b - a + 1) (fun k -> a + k)

    (* The indices outside every product's size list, ascending: their
       deltas enter the resource expressions linearly. *)
    let linear_indices =
      let in_products = List.concat_map snd T.products in
      List.filter (fun i -> not (List.mem i in_products)) (range 1 T.var_count)

    (* Resource expression (in percentage points of the device) for one
       metric, as constraint terms.  Nonlinear: per-cache products of
       the ways factor and the per-way size deltas, plus everything
       else linear; the paper's Section 4 FPGA resource constraints. *)
    let resource_terms slot deltas get ~nonlinear =
      if not nonlinear then
        [ Optim.Binlp.Lin (lin_of slot deltas get (range 1 T.var_count)) ]
      else
        List.map
          (fun (factor, sizes) ->
            Optim.Binlp.Prod
              (product_factor slot factor, lin_of slot deltas get sizes))
          T.products
        @ [ Optim.Binlp.Lin (lin_of slot deltas get linear_indices) ]

    let coupling slot antecedent consequents =
      (* antecedent <= sum of consequents, i.e. x_a - sum x_c <= 0. *)
      match var_in slot antecedent with
      | None -> None
      | Some ja ->
          let cons = List.filter_map (var_in slot) consequents in
          if cons = [] then
            (* No way to satisfy the coupling: forbid the antecedent. *)
            Some
              (Optim.Binlp.linear
                 { Optim.Binlp.coeffs = [ (ja, 1.0) ]; const = 0.0 }
                 Optim.Binlp.Le 0.0)
          else
            Some
              (Optim.Binlp.linear
                 {
                   Optim.Binlp.coeffs =
                     (ja, 1.0) :: List.map (fun j -> (j, -1.0)) cons;
                   const = 0.0;
                 }
                 Optim.Binlp.Le 0.0)

    (* {2 Schedule formulation}

       Phase-scheduled selection: every runtime-reconfigurable model
       row gets one solver variable {e per phase}; with two or more
       phases, rows of the groups in [T.static_groups] keep a single
       variable shared by all phases.  Objective: per-phase runtime
       deltas (from the per-phase models) plus the resource deltas
       averaged over the phases, so a row selected in every phase
       contributes exactly its static objective; pairwise product terms
       charge [T.group_switch_cycles] whenever adjacent phases — and,
       with two or more phases, the wrap-around repetition boundary —
       disagree on a group's value.  With one phase the layout is the
       model's row order and there are no switch terms: that problem
       is {!make}. *)

    type schedule = {
      problem : Optim.Binlp.problem;
      switch_terms : Optim.Binlp.term list;
          (* pass as {!solve}'s [objective_terms] *)
      slots : (int * Measure.row) list array;
          (* per phase: (solver variable, row); static rows repeat
             their shared variable in every phase *)
    }

    let schedule_vars_of_solution sched (s : Optim.Binlp.solution) =
      Array.map
        (fun slots ->
          List.filter_map
            (fun (j, (r : Measure.row)) ->
              if s.Optim.Binlp.x.(j) then Some r.Measure.var else None)
            slots
          |> List.sort (fun (a : T.var) (b : T.var) ->
                 compare a.T.index b.T.index))
        sched.slots

    (** @raise Invalid_argument without models, or when the phase
        models' rows differ in their variables or order. *)
    let make_schedule ?(variant = paper_variant) ~reps
        ~(weights : Cost.weights) (models : Measure.model list) =
      let first =
        match models with
        | [] -> invalid_arg "Formulate.make_schedule: no phase models"
        | m :: _ -> m
      in
      let same_rows (m : Measure.model) =
        List.equal
          (fun (a : Measure.row) (b : Measure.row) ->
            a.Measure.var.T.index = b.Measure.var.T.index)
          m.Measure.rows first.Measure.rows
      in
      if not (List.for_all same_rows models) then
        invalid_arg "Formulate.make_schedule: phase models disagree on rows";
      let phase_deltas = Array.of_list (List.map deltas_of models) in
      let nphases = Array.length phase_deltas in
      (* One phase shares nothing: its layout is the model's row order,
         the static problem's. *)
      let shared (r : Measure.row) =
        nphases >= 2 && List.mem r.Measure.var.T.group T.static_groups
      in
      let recon, static =
        List.partition (fun r -> not (shared r)) first.Measure.rows
      in
      let n_recon = List.length recon in
      let nvars = (nphases * n_recon) + List.length static in
      let slots =
        Array.init nphases (fun p ->
            List.mapi (fun pos r -> ((p * n_recon) + pos, r)) recon
            @ List.mapi (fun pos r -> ((nphases * n_recon) + pos, r)) static)
      in
      let slot = Array.map slot_of slots in
      let rho_p p (r : Measure.row) =
        phase_deltas.(p).(r.Measure.var.T.index).Cost.rho
      in
      let fp = float_of_int nphases in
      let objective = Array.make nvars 0.0 in
      List.iteri
        (fun pos (r : Measure.row) ->
          let d = r.Measure.deltas in
          for p = 0 to nphases - 1 do
            objective.((p * n_recon) + pos) <-
              (weights.Cost.w1 *. rho_p p r)
              +. (weights.Cost.w2 *. (d.Cost.lambda +. d.Cost.beta) /. fp)
          done)
        recon;
      List.iteri
        (fun pos (r : Measure.row) ->
          let d = r.Measure.deltas in
          let rho = ref 0.0 in
          for p = 0 to nphases - 1 do
            rho := !rho +. rho_p p r
          done;
          objective.((nphases * n_recon) + pos) <-
            (weights.Cost.w1 *. !rho)
            +. (weights.Cost.w2 *. (d.Cost.lambda +. d.Cost.beta)))
        static;
      let groups =
        List.concat_map
          (fun g ->
            let members p =
              List.filter_map
                (fun (v : T.var) -> var_in slot.(p) v.T.index)
                (T.group_members g)
            in
            let m0 = members 0 in
            if List.length m0 < 2 then []
            else if List.mem g T.static_groups then [ m0 ]
            else m0 :: List.init (nphases - 1) (fun p -> members (p + 1)))
          T.groups
      in
      (* Outside the model, or a shared slot (they follow the per-phase
         copies). *)
      let phase_independent i =
        slot.(0).(i) < 0 || slot.(0).(i) >= nphases * n_recon
      in
      let couplings =
        List.concat_map
          (fun (a, cs) ->
            let ps =
              if List.for_all phase_independent (a :: cs) then [ 0 ]
              else List.init nphases Fun.id
            in
            List.filter_map (fun p -> coupling slot.(p) a cs) ps)
          T.couplings
      in
      let resource_constraints =
        List.concat
          (List.init nphases (fun p ->
               [
                 {
                   Optim.Binlp.terms =
                     resource_terms slot.(p) phase_deltas.(0)
                       (fun d -> d.Cost.lambda)
                       ~nonlinear:variant.lut_nonlinear;
                   rel = Optim.Binlp.Le;
                   bound = headroom_luts first.Measure.base;
                 };
                 {
                   Optim.Binlp.terms =
                     resource_terms slot.(p) phase_deltas.(0)
                       (fun d -> d.Cost.beta)
                       ~nonlinear:(not variant.bram_linear);
                   rel = Optim.Binlp.Le;
                   bound = headroom_brams first.Measure.base;
                 };
               ]))
      in
      (* Interior boundaries are crossed once per repetition; the
         wrap-around switch back to phase 0 happens between
         repetitions, i.e. [reps - 1] times, and only when there is
         another phase to switch from. *)
      let pairs =
        List.init (nphases - 1) (fun p -> (p, p + 1, reps))
        @
        if nphases >= 2 && reps > 1 then [ (nphases - 1, 0, reps - 1) ]
        else []
      in
      let base_seconds = first.Measure.base.Cost.seconds in
      let switch_terms =
        List.concat_map
          (fun (p, q, mult) ->
            List.concat_map
              (fun g ->
                let kappa = T.group_switch_cycles g in
                if kappa = 0 || List.mem g T.static_groups then []
                else
                  let members =
                    List.filter_map
                      (fun (v : T.var) ->
                        match
                          (var_in slot.(p) v.T.index, var_in slot.(q) v.T.index)
                        with
                        | Some jp, Some jq -> Some (jp, jq)
                        | _ -> None)
                      (T.group_members g)
                  in
                  if members = [] then []
                  else
                    (* coef * (1 - [phases p and q agree on g]): a
                       constant charge cancelled by the agreement
                       products — same member selected on both sides,
                       or none on both.  Different members still cost
                       [coef] once: one slice reprogram. *)
                    let coef =
                      weights.Cost.w1 *. 100.
                      *. (float_of_int mult *. float_of_int kappa
                         /. Sim.Machine.clock_hz)
                      /. base_seconds
                    in
                    Optim.Binlp.Lin { coeffs = []; const = coef }
                    :: Optim.Binlp.Prod
                         ( {
                             Optim.Binlp.coeffs =
                               List.map (fun (jp, _) -> (jp, coef)) members;
                             const = -.coef;
                           },
                           {
                             Optim.Binlp.coeffs =
                               List.map (fun (_, jq) -> (jq, -1.0)) members;
                             const = 1.0;
                           } )
                    :: List.map
                         (fun (jp, jq) ->
                           Optim.Binlp.Prod
                             ( {
                                 Optim.Binlp.coeffs = [ (jp, -.coef) ];
                                 const = 0.0;
                               },
                               {
                                 Optim.Binlp.coeffs = [ (jq, 1.0) ];
                                 const = 0.0;
                               } ))
                         members)
              T.groups)
          pairs
      in
      {
        problem =
          {
            Optim.Binlp.nvars;
            objective;
            groups;
            constraints = couplings @ resource_constraints;
          };
        switch_terms;
        slots;
      }

    let make ?variant (weights : Cost.weights) model =
      (make_schedule ?variant ~reps:1 ~weights [ model ]).problem

    let vars_of_solution (model : Measure.model) (s : Optim.Binlp.solution) =
      List.filteri (fun j _ -> s.Optim.Binlp.x.(j)) model.Measure.rows
      |> List.map (fun (r : Measure.row) -> r.Measure.var)
      |> List.sort (fun (a : T.var) (b : T.var) -> compare a.T.index b.T.index)

    let predicted_deltas ?(variant = paper_variant) (model : Measure.model) vars
        =
      let rows = List.mapi (fun j r -> (j, r)) model.Measure.rows in
      let slot = slot_of rows and deltas = deltas_of model in
      let x = Array.make (List.length rows) false in
      List.iter
        (fun (v : T.var) ->
          match var_in slot v.T.index with
          | Some j -> x.(j) <- true
          | None ->
              invalid_arg "Formulate.predicted_deltas: variable not in model")
        vars;
      let eval terms =
        List.fold_left
          (fun acc t ->
            acc
            +.
            match t with
            | Optim.Binlp.Lin l -> Optim.Binlp.eval_lin l x
            | Optim.Binlp.Prod (l1, l2) ->
                Optim.Binlp.eval_lin l1 x *. Optim.Binlp.eval_lin l2 x)
          0.0 terms
      in
      let rho =
        List.fold_left
          (fun acc (j, (r : Measure.row)) ->
            if x.(j) then acc +. r.Measure.deltas.Cost.rho else acc)
          0.0 rows
      in
      let lambda =
        eval
          (resource_terms slot deltas
             (fun d -> d.Cost.lambda)
             ~nonlinear:variant.lut_nonlinear)
      in
      let beta =
        eval
          (resource_terms slot deltas
             (fun d -> d.Cost.beta)
             ~nonlinear:(not variant.bram_linear))
      in
      { Cost.rho; lambda; beta }
  end

  (** The paper's full pipeline: model ({!Measure}), BINLP
      ({!Formulate}), exact solve ({!solve}), {!decode}, then
      "actual synthesis" — build the recommendation so predictions
      meet reality.  [predicted] is the solver's estimate under
      [variant]; its [_alt] fields use the swapped constraint forms.
      [run_with_model] reuses a measured model, which dominates cost. *)
  module Optimizer = struct
    type prediction = {
      seconds : float;
      lut_percent : float;
      lut_percent_alt : float;
      bram_percent : float;
      bram_percent_alt : float;
    }

    type outcome = {
      model : Measure.model;
      weights : Cost.weights;
      solution : Optim.Binlp.solution;
      selected : T.var list;
      config : T.config;
      predicted : prediction;
      actual : Cost.t;
    }

    let predict ?variant model selected =
      let variant =
        match variant with None -> paper_variant | Some v -> v
      in
      let d = Formulate.predicted_deltas ~variant model selected in
      let alt =
        Formulate.predicted_deltas
          ~variant:
            {
              lut_nonlinear = not variant.lut_nonlinear;
              bram_linear = not variant.bram_linear;
            }
          model selected
      in
      let base = model.Measure.base in
      {
        seconds = base.Cost.seconds *. (1.0 +. (d.Cost.rho /. 100.0));
        lut_percent = lut_percent base.Cost.resources +. d.Cost.lambda;
        lut_percent_alt = lut_percent base.Cost.resources +. alt.Cost.lambda;
        bram_percent = bram_percent base.Cost.resources +. d.Cost.beta;
        bram_percent_alt = bram_percent base.Cost.resources +. alt.Cost.beta;
      }

    (* The pipeline's four phases — measure, formulate, solve, verify —
       as spans, so a trace shows at a glance where a reconfiguration
       run spends its time ([Measure.build] opens the measure phase
       itself). *)
    (** @raise Failure if the BINLP has no feasible solution (not with
        the paper's constraints: the empty selection is feasible). *)
    let run_with_model ?variant ~weights (model : Measure.model) =
      let app = model.Measure.app.Apps.Registry.name in
      let attrs = [ ("app", Obs.Json.String app) ] in
      let problem =
        Obs.Span.with_ ~cat:"dse" "phase.formulate" ~attrs (fun () ->
            Formulate.make ?variant weights model)
      in
      (* A node-limited incumbent is usable even if optimality was not
         proven. *)
      let solution, _ =
        Obs.Span.with_ ~cat:"dse" "phase.solve" ~attrs (fun () ->
            solve problem)
      in
      Obs.Span.with_ ~cat:"dse" "phase.verify" ~attrs @@ fun () ->
      let selected = Formulate.vars_of_solution model solution in
      let config = decode selected in
      (* Verify-by-build is noise-free even when the model was noisy:
         the recommendation is judged against reality. *)
      let actual =
        Engine.eval_on (Engine.default ()) T.probe model.Measure.app config
      in
      (* Sanitizer, never a prune: the verification build is part of
         the reported outcome, so it always runs; the static bounds only
         cross-check it.  A violation means the bounds analysis or the
         simulator is wrong. *)
      (match T.probe.Target.static_bounds with
      | None -> ()
      | Some bounds_of ->
          let lo, hi = bounds_of model.Measure.app config in
          Obs.Metrics.Counter.incr Bounds.m_computed;
          if Obs.Journal.enabled () then
            Obs.Journal.record ~kind:"bounds.verify"
              [
                ("app", Obs.Json.String app);
                ("config", Obs.Json.String (T.to_string config));
                ("lo", Obs.Json.Float lo);
                ("hi", Obs.Json.Float hi);
                ("actual", Obs.Json.Float actual.Cost.seconds);
                ( "tightness",
                  match Bounds.tightness ~lo ~hi with
                  | Some r -> Obs.Json.Float r
                  | None -> Obs.Json.Null );
              ];
          if actual.Cost.seconds < lo || actual.Cost.seconds > hi then begin
            Obs.Metrics.Counter.incr Bounds.m_violations;
            Format.eprintf
              "verify(%s/%s): runtime %.9fs outside static bounds [%.9f, \
               %.9f]@."
              T.name app actual.Cost.seconds lo hi
          end);
      {
        model;
        weights;
        solution;
        selected;
        config;
        predicted = predict ?variant model selected;
        actual;
      }

    let run ?noise ?dims ?variant ~weights app =
      let model =
        Obs.Span.with_ ~cat:"dse" "phase.measure"
          ~attrs:[ ("app", Obs.Json.String app.Apps.Registry.name) ]
          (fun () -> Measure.build ?noise ?dims app)
      in
      run_with_model ?variant ~weights model

    let pp_selected ppf vars =
      Fmt.(list ~sep:comma string)
        ppf
        (List.map (fun (v : T.var) -> v.T.label) vars)

    let print_outcome_summary ppf (o : outcome) =
      let pf = Format.fprintf in
      let name = o.model.Measure.app.Apps.Registry.name in
      pf ppf "  %s:@." name;
      pf ppf "    reconfigured: %s@."
        (String.concat ", "
           (List.map (fun (k, v) -> k ^ "=" ^ v) (T.changed_params o.config)));
      let base = o.model.Measure.base in
      let p = o.predicted in
      pf ppf "    base runtime %.3fs@." base.Cost.seconds;
      pf ppf
        "    predicted: %.3fs, LUTs %.1f%% (nonlin %.1f%%), BRAM %.1f%% (lin \
         %.1f%%)@."
        p.seconds p.lut_percent p.lut_percent_alt p.bram_percent
        p.bram_percent_alt;
      let a = o.actual in
      pf ppf "    actual build: %.3fs, LUTs %d%%, BRAM %d%%@." a.Cost.seconds
        (lut_percent_int a.Cost.resources)
        (bram_percent_int a.Cost.resources);
      pf ppf "    runtime change: %+.2f%% (predicted %+.2f%%)@."
        (100.0 *. (a.Cost.seconds -. base.Cost.seconds) /. base.Cost.seconds)
        (100.0 *. (p.seconds -. base.Cost.seconds) /. base.Cost.seconds)
  end

  (** The paper's Section 5 baseline: the full space is out of reach
      (56 days for 2,688 dcache combinations alone), so enumerate the
      dcache ways x way-size geometry ([geometry_sweep]; LEON2's 28
      points in Figure 2 row order) and compare with the optimizer's
      pick.  [cost = None]: the device cannot fit the point.
      [best_runtime] breaks ties by fewer BRAMs, then LUTs (the
      paper's "simple sort"). *)
  module Exhaustive = struct
    type point = {
      config : T.config;
      cost : Cost.t option;
    }

    (* One batched engine call: resources are elaborated once per point
       (feasibility and cost share the estimate), infeasible points
       never reach the simulator, and the feasible ones fan out on the
       pool. *)
    let sweep app configs =
      Engine.eval_all_feasible_on (Engine.default ()) T.probe app configs
      |> List.map2 (fun config cost -> { config; cost }) configs

    let geometry_sweep app = sweep app T.sweep_configs

    let feasible_points points =
      List.filter_map
        (fun p -> match p.cost with Some c -> Some (p, c) | None -> None)
        points

    let argmin key points =
      match feasible_points points with
      | [] -> raise Not_found
      | first :: rest ->
          let better a b = if key (snd a) <= key (snd b) then a else b in
          fst (List.fold_left better first rest)

    (** @raise Not_found if no point is feasible. *)
    let best_runtime points =
      argmin
        (fun (c : Cost.t) ->
          ( c.Cost.seconds,
            c.Cost.resources.Synth.Resource.brams,
            c.Cost.resources.Synth.Resource.luts ))
        points
  end

  (** The heuristic DSE baselines the paper positions against (Fischer
      et al.'s DSE, Gordon-Ross et al.'s cache search), each counting
      the builds it spends — the paper's scalability currency, ~30
      minutes of synthesis each: random search samples valid
      configurations until [builds] feasible ones are spent;
      coordinate descent adopts the best value per parameter from base
      until a sweep improves nothing (non-negative weights, as every
      {!Cost} preset); [paper_method] prices the paper's pipeline in
      the same currency.  Pruning by [?features] ({!Apps.Features}) or
      {!Engine.eval_bounded_on} is exact: the result is an unpruned
      run's, only [builds] drops and [pruned] counts the skips. *)
  module Heuristic = struct
    type result = {
      config : T.config;
      cost : Cost.t;
      objective : float;
      builds : int;
      pruned : int;
    }

    (* The runtime above which a feasible candidate with resource
       estimate [r] provably cannot reach an objective strictly below
       [obj]: from [w1 rho + w2 (lambda + beta) < obj] with
       [rho = 100 (s - b) / b].  The epsilon makes the cutoff strictly
       conservative under floating-point rounding (prune less, never
       more).  With [w1 <= 0] runtime does not constrain the objective
       at all, so no candidate can be pruned on runtime bounds. *)
    let objective_cutoff ~weights ~(base : Cost.t) obj (r : Synth.Resource.t) =
      if weights.Cost.w1 <= 0.0 then infinity
      else
        let lambda = lut_percent r -. lut_percent base.Cost.resources in
        let beta = bram_percent r -. bram_percent base.Cost.resources in
        let s =
          base.Cost.seconds
          *. (1.0
             +. (obj -. (weights.Cost.w2 *. (lambda +. beta)))
                /. (100.0 *. weights.Cost.w1))
        in
        s +. (1e-9 *. (Float.abs s +. 1.0))

    let random_search ?(seed = 0x5EA7C4) ~builds ~weights app =
      if builds < 1 then
        invalid_arg "Heuristic.random_search: builds must be >= 1";
      Obs.Span.with_ ~cat:"dse" "heuristic.random_search"
        ~attrs:
          [
            ("app", Obs.Json.String app.Apps.Registry.name);
            ("builds", Obs.Json.Int builds);
          ]
      @@ fun () ->
      let rng = Sim.Rng.create ~seed in
      let engine = Engine.default () in
      let base = Engine.eval_on engine T.probe app T.base in
      let best = ref (T.base, base, 0.0) in
      let spent = ref 0 in
      let pruned = ref 0 in
      (* Admission cutoff against the current incumbent: tightens as
         the search improves. *)
      let cutoff r =
        let _, _, best_obj = !best in
        objective_cutoff ~weights ~base best_obj r
      in
      while !spent < builds do
        let config = T.random_config rng in
        (* The engine elaborates resources once for the feasibility
           check, the bounds cutoff and the cost; infeasible draws are
           free. *)
        match Engine.eval_bounded_on engine ~cutoff T.probe app config with
        | Engine.Infeasible -> ()
        | Engine.Pruned _ ->
            (* A feasible draw that provably cannot beat the
               incumbent: it consumes budget exactly as the losing
               build it replaces would, so the draw sequence and the
               winner are unchanged — only the simulation count
               drops. *)
            incr spent;
            incr pruned
        | Engine.Evaluated cost ->
            incr spent;
            Obs.Metrics.Counter.incr m_heuristic_builds;
            let objective = Cost.objective weights (deltas ~base cost) in
            let _, _, best_obj = !best in
            if objective < best_obj then best := (config, cost, objective)
      done;
      let config, cost, objective = !best in
      { config; cost; objective; builds = builds - !pruned; pruned = !pruned }

    (* Skipping is trajectory-preserving: a pruned candidate has the
       exact runtime of the incumbent and no better LUT or BRAM count,
       so with the (non-negative) weighted objective it can never win
       the strict improvement test.  Both configurations are feasible
       here, so [T.resources] is total. *)
    let prunable ft current candidate =
      T.statically_equivalent ft current candidate
      &&
      let rcan = T.resources candidate and rcur = T.resources current in
      rcan.Synth.Resource.luts >= rcur.Synth.Resource.luts
      && rcan.Synth.Resource.brams >= rcur.Synth.Resource.brams

    let coordinate_descent ?(max_sweeps = 5) ?features ~weights app =
      Obs.Span.with_span ~cat:"dse" "heuristic.coordinate_descent"
        ~attrs:[ ("app", Obs.Json.String app.Apps.Registry.name) ]
      @@ fun span ->
      let engine = Engine.default () in
      let base = Engine.eval_on engine T.probe app T.base in
      let builds = ref 0 in
      let pruned = ref 0 in
      let current = ref T.base in
      let current_obj = ref 0.0 in
      let improved = ref true in
      let sweeps = ref 0 in
      while !improved && !sweeps < max_sweeps do
        improved := false;
        incr sweeps;
        List.iter
          (fun g ->
            List.iter
              (fun apply ->
                let candidate = apply !current in
                if (not (T.equal candidate !current)) && T.feasible candidate
                then begin
                  match features with
                  | Some ft when prunable ft !current candidate ->
                      incr pruned;
                      Obs.Metrics.Counter.incr m_heuristic_pruned
                  | _ -> (
                      (* Bounds admission against the strict
                         improvement threshold: a pruned candidate
                         provably fails [objective < current - 1e-9],
                         so the descent trajectory is unchanged. *)
                      let cutoff =
                        objective_cutoff ~weights ~base
                          (!current_obj -. 1e-9)
                      in
                      match
                        Engine.eval_bounded_on engine ~cutoff T.probe app
                          candidate
                      with
                      | Engine.Infeasible -> ()
                      | Engine.Pruned _ ->
                          incr pruned;
                          Obs.Metrics.Counter.incr m_heuristic_pruned
                      | Engine.Evaluated cost ->
                          incr builds;
                          Obs.Metrics.Counter.incr m_heuristic_builds;
                          let objective =
                            Cost.objective weights (deltas ~base cost)
                          in
                          if objective < !current_obj -. 1e-9 then begin
                            current := candidate;
                            current_obj := objective;
                            improved := true
                          end)
                end)
              (T.group_options g))
          T.groups
      done;
      let cost = Engine.eval_on engine T.probe app !current in
      Obs.Span.add_attr span "builds" (Obs.Json.Int !builds);
      Obs.Span.add_attr span "pruned" (Obs.Json.Int !pruned);
      {
        config = !current;
        cost;
        objective = !current_obj;
        builds = !builds;
        pruned = !pruned;
      }

    let paper_method ~weights app =
      Obs.Span.with_ ~cat:"dse" "heuristic.paper_method"
        ~attrs:[ ("app", Obs.Json.String app.Apps.Registry.name) ]
      @@ fun () ->
      let model = Measure.build app in
      let o = Optimizer.run_with_model ~weights model in
      (* Builds the pipeline actually spends: the base, one per row,
         one per distinct non-base reference configuration (the 2-way
         replacement references on LEON2), and the verification
         build. *)
      let repl_references =
        List.sort_uniq compare
          (List.filter_map
             (fun (r : Measure.row) ->
               let reference = T.reference_config r.Measure.var in
               if T.equal reference T.base then None
               else Some (T.to_string reference))
             model.Measure.rows)
        |> List.length
      in
      {
        config = o.Optimizer.config;
        cost = o.Optimizer.actual;
        objective =
          Cost.objective weights
            (deltas ~base:model.Measure.base o.Optimizer.actual);
        builds = 1 + List.length model.Measure.rows + repl_references + 1;
        pruned = 0;
      }

    let print_comparison ppf app_name results =
      Format.fprintf ppf "  %s:@." app_name;
      Format.fprintf ppf "    %-22s %8s %8s %12s %10s@." "method" "builds"
        "pruned" "objective" "runtime(s)";
      List.iteri
        (fun k r ->
          let name =
            match k with
            | 0 -> "paper (model+BINLP)"
            | 1 -> "coordinate descent"
            | _ -> Printf.sprintf "random search"
          in
          Format.fprintf ppf "    %-22s %8d %8d %12.2f %10.3f@." name r.builds
            r.pruned r.objective r.cost.Cost.seconds)
        results
  end

  (** Ablations of the paper's design choices: synthesis noise
      ([noise_study], amplitudes 0, 0.002, 0.005, 0.01 of the device by
      default — the variance behind the paper's "sub-optimal" register
      windows; [objective_regret] > 0 means worse than the noise-free
      pick), constraint form ([variant_study], the four LUT x BRAM
      linearity combinations of Sections 4 and 6) and parameter
      independence ([independence_study], predicted vs built runtime
      change for every registry app). *)
  module Ablation = struct
    type noise_point = {
      amplitude : float;
      outcome : Optimizer.outcome;
      objective_regret : float;
    }

    (* True (noise-free) objective of an already-built configuration.
       Noise-free evaluations live under their own cache key, so they
       are never contaminated by the perturbed measurements of the
       study. *)
    let true_objective weights app config =
      let engine = Engine.default () in
      let base = Engine.eval_on engine T.probe app T.base in
      let cost = Engine.eval_on engine T.probe app config in
      Cost.objective weights (deltas ~base cost)

    let noise_study ?(amplitudes = [ 0.0; 0.002; 0.005; 0.01 ]) ~weights app =
      let reference =
        let o = Optimizer.run ~weights app in
        true_objective weights app o.Optimizer.config
      in
      List.map
        (fun amplitude ->
          let outcome =
            if amplitude = 0.0 then Optimizer.run ~weights app
            else Optimizer.run ~noise:amplitude ~weights app
          in
          let obj = true_objective weights app outcome.Optimizer.config in
          { amplitude; outcome; objective_regret = obj -. reference })
        amplitudes

    type variant_point = {
      variant : variant;
      outcome : Optimizer.outcome;
      bram_prediction_error : float;
    }

    let variant_study ~weights model =
      let variants =
        [
          { lut_nonlinear = false; bram_linear = false };
          { lut_nonlinear = true; bram_linear = false };
          { lut_nonlinear = false; bram_linear = true };
          { lut_nonlinear = true; bram_linear = true };
        ]
      in
      List.map
        (fun variant ->
          let outcome = Optimizer.run_with_model ~variant ~weights model in
          let actual = bram_percent outcome.Optimizer.actual.Cost.resources in
          {
            variant;
            outcome;
            bram_prediction_error =
              outcome.Optimizer.predicted.Optimizer.bram_percent -. actual;
          })
        variants

    type independence_point = {
      app : Apps.Registry.t;
      predicted_gain : float;
      actual_gain : float;
    }

    let independence_study ~weights =
      List.map
        (fun app ->
          let o = Optimizer.run ~weights app in
          let base = o.Optimizer.model.Measure.base.Cost.seconds in
          {
            app;
            predicted_gain =
              100.0 *. (o.Optimizer.predicted.Optimizer.seconds -. base)
              /. base;
            actual_gain =
              100.0 *. (o.Optimizer.actual.Cost.seconds -. base) /. base;
          })
        Apps.Registry.all

    let pf = Format.fprintf

    let print_noise ppf points =
      pf ppf "Ablation: synthesis measurement noise (LUT measurements)@.";
      pf ppf "  %9s %9s  %s@." "amplitude" "regret" "selected parameters";
      List.iter
        (fun (p : noise_point) ->
          let params =
            T.changed_params p.outcome.Optimizer.config
            |> List.map (fun (k, v) -> k ^ "=" ^ v)
            |> String.concat ", "
          in
          pf ppf "  %8.1f%% %+9.3f  %s@." (100.0 *. p.amplitude)
            p.objective_regret params)
        points;
      pf ppf
        "  (regret: true weighted objective relative to the noise-free pick; \
         the paper's 'registers=28..31 (sub-optimal)' rows are this effect)@."

    let print_variants ppf points =
      pf ppf "Ablation: constraint linearity (paper Section 4/6)@.";
      pf ppf "  %-12s %-12s %12s %10s %10s@." "LUT model" "BRAM model"
        "runtime(s)" "BRAM%" "pred.err";
      List.iter
        (fun (p : variant_point) ->
          pf ppf "  %-12s %-12s %12.3f %9.1f%% %+9.2f%s@."
            (if p.variant.lut_nonlinear then "nonlinear" else "linear")
            (if p.variant.bram_linear then "linear" else "nonlinear")
            p.outcome.Optimizer.actual.Cost.seconds
            (bram_percent p.outcome.Optimizer.actual.Cost.resources)
            p.bram_prediction_error
            (if fits p.outcome.Optimizer.actual.Cost.resources then ""
             else "  DOES NOT FIT THE DEVICE"))
        points;
      pf ppf
        "  (the linear BRAM model misses the ways x size interaction, \
         under-predicts — the paper's BRAM%%-lin rows — and here selects a \
         configuration the device cannot hold)@."

    let print_independence ppf points =
      pf ppf "Ablation: the parameter-independence assumption@.";
      pf ppf "  %-8s %12s %12s %12s@." "app" "predicted" "actual" "error";
      List.iter
        (fun p ->
          pf ppf "  %-8s %+11.2f%% %+11.2f%% %+11.2f%%@."
            p.app.Apps.Registry.name p.predicted_gain p.actual_gain
            (p.predicted_gain -. p.actual_gain))
        points;
      pf ppf
        "  (negative error = the optimizer over-promises, the paper's DRR \
         case: overlapping cache gains add up linearly in the model)@."
  end

  (** One processor for an application {e set} ("a particular
      application or application set", the paper's introduction):
      runtime deltas are weighted by each app's normalized execution
      share, resource deltas are the configuration's, and the pick is
      verified by measuring {e every} application on it. *)
  module Multiapp = struct
    type workload = (Apps.Registry.t * float) list

    type outcome = {
      workload : workload;
      selected : T.var list;
      config : T.config;
      mix_gain_percent : float;
      per_app : (Apps.Registry.t * float) list;
    }

    let normalize workload =
      if workload = [] then invalid_arg "Multiapp.optimize: empty workload";
      List.iter
        (fun (_, s) ->
          if s <= 0.0 then
            invalid_arg "Multiapp.optimize: shares must be positive")
        workload;
      let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 workload in
      List.map (fun (app, s) -> (app, s /. total)) workload

    (* Combine per-application models into one: runtime deltas are
       weighted by share, resource deltas taken from the first model
       (they depend on the configuration only). *)
    let combine (models : (Measure.model * float) list) =
      match models with
      | [] -> invalid_arg "Multiapp.combine: no models"
      | (first, _) :: _ ->
          let rows =
            List.map
              (fun (r : Measure.row) ->
                let rho =
                  List.fold_left
                    (fun acc ((m : Measure.model), share) ->
                      let mr = Measure.row m r.Measure.var.T.index in
                      acc +. (share *. mr.Measure.deltas.Cost.rho))
                    0.0 models
                in
                {
                  r with
                  Measure.deltas = { r.Measure.deltas with Cost.rho = rho };
                })
              first.Measure.rows
          in
          Measure.with_rows first rows

    (* Through the engine (not a bare [Apps.Registry.seconds]) so every
       verification is memoized and counted in [dse.builds] or
       [dse.engine.priced] — the base point is always a cache hit
       (measured during model building). *)
    let runtime_change app config =
      let engine = Engine.default () in
      let base = (Engine.eval_on engine T.probe app T.base).Cost.seconds in
      let tuned = (Engine.eval_on engine T.probe app config).Cost.seconds in
      100.0 *. (tuned -. base) /. base

    (** @raise Invalid_argument on an empty workload or a non-positive
        share. *)
    let optimize ?dims ~weights workload =
      let workload = normalize workload in
      let models =
        List.map (fun (app, share) -> (Measure.build ?dims app, share)) workload
      in
      let model = combine models in
      let solution, _ = solve (Formulate.make weights model) in
      let selected = Formulate.vars_of_solution model solution in
      let config = decode selected in
      let per_app =
        List.map (fun (app, _) -> (app, runtime_change app config)) workload
      in
      let mix_gain_percent =
        List.fold_left2
          (fun acc (_, share) (_, change) -> acc +. (share *. change))
          0.0 workload per_app
      in
      { workload; selected; config; mix_gain_percent; per_app }

    let print ppf o =
      Format.fprintf ppf "  workload: %s@."
        (String.concat " + "
           (List.map
              (fun (app, s) ->
                Printf.sprintf "%.0f%% %s" (100.0 *. s)
                  app.Apps.Registry.name)
              o.workload));
      Format.fprintf ppf "  reconfigured: %s@."
        (String.concat ", "
           (List.map (fun (k, v) -> k ^ "=" ^ v) (T.changed_params o.config)));
      List.iter
        (fun (app, change) ->
          Format.fprintf ppf "    %-8s %+7.2f%%@." app.Apps.Registry.name
            change)
        o.per_app;
      Format.fprintf ppf "  mix: %+7.2f%%@." o.mix_gain_percent
  end

  module Schedule = struct
    (* Phase-aware reconfiguration: detect phases of one application,
       measure the one-at-a-time model per phase, solve one BINLP with
       per-phase variable copies and pairwise switch costs, and verify
       the winning schedule against the verified static pick.  One
       engine recording per execution class answers all of it: the
       detector splits base's recorded windows, every per-phase and
       whole-run evaluation is priced from the recording, and the
       schedule is verified by replaying it.  Every step is
       deterministic, so the outcome is identical for any worker
       count. *)

    type plan =
      | Static of T.config
      | Phased of (int * T.config) list  (** [(start_insn, config)] *)

    type outcome = {
      app : Apps.Registry.t;
      phases : Sim.Phase.t;
      static : Optimizer.outcome;
      plan : plan;
      static_seconds : float;
      scheduled_seconds : float;
      switch_cycles : int;
          (* total reconfiguration cycles inside [scheduled_seconds] *)
      gain_percent : float;  (* static vs scheduled, net of switches *)
      solve_nodes : int;
    }

    let params_of config =
      match T.changed_params config with
      | [] -> "base"
      | ps -> String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) ps)

    let record_phases app (phases : Sim.Phase.t) =
      if Obs.Journal.enabled () then
        List.iteri
          (fun k (p : Sim.Phase.phase) ->
            Obs.Journal.record ~kind:"schedule.phase"
              [
                ("target", Obs.Json.String T.name);
                ("app", Obs.Json.String app.Apps.Registry.name);
                ("index", Obs.Json.Int k);
                ("start", Obs.Json.Int p.Sim.Phase.start_insn);
                ("end", Obs.Json.Int p.Sim.Phase.end_insn);
                ( "dominant",
                  Obs.Json.String (Sim.Phase.dominant p.Sim.Phase.profile) );
              ])
          phases.Sim.Phase.phases

    let record_select app k config =
      if Obs.Journal.enabled () then
        Obs.Journal.record ~kind:"schedule.select"
          [
            ("target", Obs.Json.String T.name);
            ("app", Obs.Json.String app.Apps.Registry.name);
            ("phase", Obs.Json.Int k);
            ("config", Obs.Json.String (T.to_string config));
            ("params", Obs.Json.String (params_of config));
          ]

    let record_switch app ~at ~cycles config =
      if Obs.Journal.enabled () then
        Obs.Journal.record ~kind:"schedule.switch"
          [
            ("target", Obs.Json.String T.name);
            ("app", Obs.Json.String app.Apps.Registry.name);
            ("at", Obs.Json.Int at);
            ("cycles", Obs.Json.Int cycles);
            ("to", Obs.Json.String (params_of config));
          ]

    let record_verify app ~static_seconds ~scheduled_seconds ~switch_cycles
        ~gain =
      if Obs.Journal.enabled () then
        Obs.Journal.record ~kind:"schedule.verify"
          [
            ("target", Obs.Json.String T.name);
            ("app", Obs.Json.String app.Apps.Registry.name);
            ("static_seconds", Obs.Json.Float static_seconds);
            ("scheduled_seconds", Obs.Json.Float scheduled_seconds);
            ("switch_cycles", Obs.Json.Int switch_cycles);
            ("gain_pct", Obs.Json.Float gain);
          ]

    let run ?noise ?options ?dims ~weights app =
      Obs.Span.with_span ~cat:"dse" "schedule.run"
        ~attrs:[ ("app", Obs.Json.String app.Apps.Registry.name) ]
      @@ fun span ->
      let dims = match dims with None -> T.schedule_dims | Some d -> d in
      let options = Option.value options ~default:Sim.Phase.default_options in
      let window = options.Sim.Phase.window in
      let phases =
        Obs.Span.with_ ~cat:"dse" "schedule.detect"
          ~attrs:[ ("app", Obs.Json.String app.Apps.Registry.name) ]
          (fun () ->
            Sim.Phase.split options
              (Engine.windows_on (Engine.default ()) T.probe app ~window T.base))
      in
      let nphases = Sim.Phase.count phases in
      Obs.Span.add_attr span "phases" (Obs.Json.Int nphases);
      Obs.Metrics.Counter.incr ~by:nphases m_schedule_phases;
      record_phases app phases;
      let boundaries = Sim.Phase.boundaries phases in
      (* With two or more phases, price each distinct configuration
         among base and every row's (measured, reference) pair per
         segment, from the recording the detection made.  That comes
         before the static optimizer, whose whole-run misses then claim
         the same recording: each execution class is simulated once. *)
      let measured =
        if nphases = 1 then []
        else begin
          let configs =
            List.fold_left
              (fun acc c ->
                if List.exists (T.equal c) acc then acc else c :: acc)
              []
              (T.base
              :: List.concat_map
                   (fun var ->
                     let reference = Measure.reference_config var in
                     [ var.T.apply reference; reference ])
                   (Measure.vars_in dims))
            |> List.rev
          in
          let segments =
            Obs.Span.with_ ~cat:"dse" "schedule.measure"
              ~attrs:[ ("app", Obs.Json.String app.Apps.Registry.name) ]
              (fun () ->
                Engine.segments_on (Engine.default ()) T.probe app ~window
                  ~boundaries configs)
          in
          List.combine configs
            (List.map
               (fun ps ->
                 Array.of_list (List.map Sim.Machine.profile_seconds ps))
               segments)
        end
      in
      let phase_seconds c =
        snd (List.find (fun (c', _) -> T.equal c c') measured)
      in
      let static = Optimizer.run ?noise ~dims ~weights app in
      let static_seconds = static.Optimizer.actual.Cost.seconds in
      let plan, solve_nodes =
        if nphases = 1 then (Static static.Optimizer.config, 0)
        else begin
          let model = static.Optimizer.model in
          let rows = model.Measure.rows in
          let base_total = model.Measure.base.Cost.seconds in
          let secs =
            List.map
              (fun (r : Measure.row) ->
                let reference = Measure.reference_config r.Measure.var in
                ( phase_seconds (r.Measure.var.T.apply reference),
                  phase_seconds reference ))
              rows
          in
          (* Per-phase marginal runtime deltas, normalized by the whole
             base runtime (so summing a row's rho over the phases gives
             back its static rho). *)
          let models =
            List.init nphases (fun p ->
                Measure.with_rows model
                  (List.map2
                     (fun (r : Measure.row) (measured, reference) ->
                       let rho =
                         100.0 *. (measured.(p) -. reference.(p)) /. base_total
                       in
                       {
                         r with
                         Measure.deltas = { r.Measure.deltas with Cost.rho };
                       })
                     rows secs))
          in
          let sched =
            Obs.Span.with_ ~cat:"dse" "schedule.formulate"
              ~attrs:[ ("app", Obs.Json.String app.Apps.Registry.name) ]
              (fun () ->
                Formulate.make_schedule ~reps:app.Apps.Registry.reps ~weights
                  models)
          in
          let solution, nodes =
            Obs.Span.with_ ~cat:"dse" "schedule.solve"
              ~attrs:[ ("app", Obs.Json.String app.Apps.Registry.name) ]
              (fun () ->
                solve ~objective_terms:sched.Formulate.switch_terms
                  sched.Formulate.problem)
          in
          Obs.Metrics.Counter.incr ~by:nodes m_schedule_nodes;
          let configs =
            Array.map decode
              (Formulate.schedule_vars_of_solution sched solution)
          in
          (* A schedule that selects the same configuration everywhere
             degenerates to a static pick: no switch happens, so no
             switch cost is paid. *)
          if Array.for_all (fun c -> T.equal c configs.(0)) configs then
            (Static configs.(0), nodes)
          else
            ( Phased (List.combine (0 :: boundaries) (Array.to_list configs)),
              nodes )
        end
      in
      let scheduled_seconds, switch_cycles =
        match plan with
        | Static config ->
            let seconds =
              if T.equal config static.Optimizer.config then static_seconds
              else
                (Engine.eval_on (Engine.default ()) T.probe app config)
                  .Cost.seconds
            in
            record_select app 0 config;
            (seconds, 0)
        | Phased schedule ->
            List.iteri (fun k (_, c) -> record_select app k c) schedule;
            (if Obs.Journal.enabled () then
               match schedule with
               | [] -> ()
               | (_, first) :: rest ->
                   let rec switches prev = function
                     | [] -> prev
                     | (at, c) :: tl ->
                         record_switch app ~at
                           ~cycles:(T.switch_cycles prev c) c;
                         switches c tl
                   in
                   let last = switches first rest in
                   record_switch app ~at:phases.Sim.Phase.total_insns
                     ~cycles:(T.switch_cycles last first) first);
            let ph =
              Obs.Span.with_ ~cat:"dse" "schedule.verify"
                ~attrs:[ ("app", Obs.Json.String app.Apps.Registry.name) ]
                (fun () ->
                  T.replay_app_phased ~schedule
                    (Engine.recording_on (Engine.default ()) T.probe app
                       ~window (List.map snd schedule)))
            in
            ( Sim.Machine.seconds ph.Sim.Machine.result,
              ph.Sim.Machine.switch_cycles )
      in
      let gain =
        100.0 *. (static_seconds -. scheduled_seconds) /. static_seconds
      in
      Obs.Metrics.Gauge.set m_schedule_gain gain;
      record_verify app ~static_seconds ~scheduled_seconds ~switch_cycles ~gain;
      {
        app;
        phases;
        static;
        plan;
        static_seconds;
        scheduled_seconds;
        switch_cycles;
        gain_percent = gain;
        solve_nodes;
      }

    let print ppf (o : outcome) =
      let pf = Format.fprintf in
      pf ppf "  %s:@." o.app.Apps.Registry.name;
      pf ppf "    phases: %d@." (Sim.Phase.count o.phases);
      List.iteri
        (fun k (p : Sim.Phase.phase) ->
          pf ppf "      #%d [%d, %d) %s@." k p.Sim.Phase.start_insn
            p.Sim.Phase.end_insn
            (Sim.Phase.dominant p.Sim.Phase.profile))
        o.phases.Sim.Phase.phases;
      (match o.plan with
      | Static config -> pf ppf "    schedule: static (%s)@." (params_of config)
      | Phased schedule ->
          pf ppf "    schedule:@.";
          List.iter
            (fun (at, c) -> pf ppf "      @%-9d %s@." at (params_of c))
            schedule);
      pf ppf "    static:    %.6fs (%s)@." o.static_seconds
        (params_of o.static.Optimizer.config);
      pf ppf "    scheduled: %.6fs (switch overhead %d cycles)@."
        o.scheduled_seconds o.switch_cycles;
      pf ppf "    gain: %+.2f%% (solver nodes %d)@." o.gain_percent
        o.solve_nodes
  end
end

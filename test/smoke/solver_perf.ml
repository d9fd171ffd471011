(* Solver-throughput smoke test (@solver-perf): run each of two fixed
   BINLP instances twice in one process — a run is a fixed number of
   identical solves, enough for a few tenths of a second, so one
   scheduler hiccup cannot swing the rate — record nodes-per-second for
   each run, and gate the second run against the first with the
   standard bench-history rules: solver_nodes pinned at 1.05x (the
   formulation is deterministic, so any drift is a bug) and
   binlp_nodes_per_second floored at 0.67x.  Each instance's node count
   is also pinned exactly: a change to the search order or its pruning
   shows here before it shows in any figure.  The bench binary applies
   the same rules to its work counters across processes via
   BENCH_history.jsonl; throughput is gated here, from explored nodes
   over these solves' own time.

   The two instances cover the two shapes the solver is run on: the
   static formulation (linear objective, product resource constraint)
   and the phase schedule (per-phase copies of every option, pairwise
   switch-cost product terms in the objective), whose objective-term
   bound runs at every node. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt
let lin coeffs const = { Optim.Binlp.coeffs; const }

(* Deterministic ablation-class instance: the paper's shape (SOS1
   option groups, a multiplicative cache-resource coupling, a linear
   budget) sized so the budget binds at roughly a third of the
   variables — the knapsack-like regime where the objective bound
   prunes weakly and the tree genuinely explores a few hundred
   thousand nodes.  All coefficients are exact dyadic rationals, so
   the node count and winner are bit-deterministic. *)
let static_problem () =
  let nvars = 30 in
  let objective =
    Array.init nvars (fun j -> -.float_of_int ((j * 7 mod 13) + 1) /. 4.0)
  in
  let groups = [ [ 0; 1; 2 ]; [ 3; 4; 5; 6 ] ] in
  let w =
    List.init nvars (fun j -> (j, float_of_int ((j * 5 mod 11) + 3) /. 2.0))
  in
  let total = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 w in
  ( {
      Optim.Binlp.nvars;
      objective;
      groups;
      constraints =
        [
          Optim.Binlp.linear (lin w 0.0) Optim.Binlp.Le (0.3 *. total);
          Optim.Binlp.product
            (lin [ (3, 1.0); (4, 2.0); (5, 3.0) ] 1.0)
            (lin w 0.0) Optim.Binlp.Le (0.9 *. total);
        ];
    },
    [] )

(* Deterministic 4-phase schedule instance, shaped like
   [Formulate.make_schedule]'s output: each phase owns a copy of ten
   options — a 3-way and a 2-way SOS1 group plus five free binaries —
   with its own runtime deltas; each phase has a product (cache-way x
   LUT) resource constraint and a linear BRAM budget; and every
   adjacent phase pair, wrap-around included, pays a switch cost
   whenever the two phases disagree on an option group, written as the
   same constant-minus-agreement product terms.  Dyadic coefficients
   keep the node count and winner bit-deterministic. *)
let schedule_problem () =
  let nphases = 4 and per_phase = 10 in
  let nvars = nphases * per_phase in
  let v p k = (p * per_phase) + k in
  let objective =
    Array.init nvars (fun j ->
        let p = j / per_phase and k = j mod per_phase in
        float_of_int (((k * 7) + (p * 5)) mod 11 - 6) /. 4.0)
  in
  let groups =
    List.concat
      (List.init nphases (fun p ->
           [ [ v p 0; v p 1; v p 2 ]; [ v p 3; v p 4 ] ]))
  in
  let luts p =
    List.init per_phase (fun k ->
        (v p k, float_of_int ((k * 3 mod 7) + 1) /. 2.0))
  in
  let brams p =
    List.init per_phase (fun k -> (v p k, float_of_int ((k * 5 mod 4) + 1)))
  in
  let constraints =
    List.concat
      (List.init nphases (fun p ->
           [
             {
               Optim.Binlp.terms =
                 [
                   Optim.Binlp.Prod
                     ( lin [ (v p 0, 1.0); (v p 1, 2.0); (v p 2, 3.0) ] 1.0,
                       lin (luts p) 0.0 );
                   Optim.Binlp.Lin (lin (luts p) 0.0);
                 ];
               rel = Optim.Binlp.Le;
               bound = 24.0;
             };
             Optim.Binlp.linear (lin (brams p) 0.0) Optim.Binlp.Le 7.0;
           ]))
  in
  (* Option groups with a switch cost: the two SOS1 groups and three of
     the free binaries. *)
  let switched =
    [
      ([ 0; 1; 2 ], 1.5); ([ 3; 4 ], 1.0); ([ 5 ], 0.75); ([ 6 ], 0.5);
      ([ 7 ], 0.25);
    ]
  in
  let switch_terms p q =
    List.concat_map
      (fun (members, coef) ->
        Optim.Binlp.Lin (lin [] coef)
        :: Optim.Binlp.Prod
             ( lin (List.map (fun k -> (v p k, coef)) members) (-.coef),
               lin (List.map (fun k -> (v q k, -1.0)) members) 1.0 )
        :: List.map
             (fun k ->
               Optim.Binlp.Prod
                 (lin [ (v p k, -.coef) ] 0.0, lin [ (v q k, 1.0) ] 0.0))
             members)
      switched
  in
  let objective_terms =
    List.concat_map
      (fun p -> switch_terms p ((p + 1) mod nphases))
      (List.init nphases Fun.id)
  in
  ({ Optim.Binlp.nvars; objective; groups; constraints }, objective_terms)

(* (history target, instance, node count pinned at the current search,
   solves per run) *)
let instances =
  [
    ("solver-perf", static_problem, 179_372, 50);
    ("solver-perf-schedule", schedule_problem, 227_094, 3);
  ]

(* [solves] identical solves; every one must explore the same tree. *)
let timed_run (p, objective_terms) solves =
  let t0 = Obs.Clock.now_ns () in
  let o = Optim.Binlp.solve ~objective_terms p in
  for _ = 2 to solves do
    let o' = Optim.Binlp.solve ~objective_terms p in
    if o'.Optim.Binlp.nodes <> o.Optim.Binlp.nodes then
      fail "nondeterministic node count: %d vs %d" o.Optim.Binlp.nodes
        o'.Optim.Binlp.nodes
  done;
  let wall_ns = Int64.sub (Obs.Clock.now_ns ()) t0 in
  (o, Int64.to_float wall_ns /. 1e9)

let rate nodes solves wall_s = float_of_int (nodes * solves) /. wall_s

let entry target nodes solves wall_s =
  let wall_s = if wall_s > 0.0 then wall_s else 1e-9 in
  {
    Obs.History.rev = "solver-perf-smoke";
    target;
    time = 0.0;
    metrics =
      [
        ("solver_nodes", float_of_int nodes);
        ("binlp_nodes_per_second", rate nodes solves wall_s);
        ("wall_clock_s", wall_s);
      ];
  }

let gate path (target, problem, pinned, solves) =
  let inst = problem () in
  let o1, w1 = timed_run inst solves in
  if o1.Optim.Binlp.status <> Optim.Binlp.Optimal then
    fail "%s: solver hit the node limit on the fixed instance" target;
  if o1.Optim.Binlp.nodes <> pinned then
    fail "%s: search changed: %d nodes, pinned %d" target o1.Optim.Binlp.nodes
      pinned;
  Obs.History.append path (entry target o1.Optim.Binlp.nodes solves w1);
  let o2, w2 = timed_run inst solves in
  if o2.Optim.Binlp.nodes <> o1.Optim.Binlp.nodes then
    fail "%s: nondeterministic node count: %d vs %d" target
      o1.Optim.Binlp.nodes o2.Optim.Binlp.nodes;
  (match (o1.Optim.Binlp.best, o2.Optim.Binlp.best) with
  | Some a, Some b when a.Optim.Binlp.x = b.Optim.Binlp.x -> ()
  | _ -> fail "%s: nondeterministic winner across identical solves" target);
  let history =
    match Obs.History.load path with
    | Ok h -> h
    | Error m -> fail "history did not round-trip: %s" m
  in
  let e2 = entry target o2.Optim.Binlp.nodes solves w2 in
  (match Obs.History.check ~history e2 with
  | [] -> ()
  | regs ->
      List.iter
        (fun r ->
          Format.eprintf "%s: REGRESSION %a@." target
            Obs.History.pp_regression r)
        regs;
      exit 1);
  Obs.History.append path e2;
  Printf.printf
    "%s: %d nodes x %d solves, %.2f / %.2f Mnodes/s (cold/warm): ok\n" target
    o1.Optim.Binlp.nodes solves
    (rate o1.Optim.Binlp.nodes solves w1 /. 1e6)
    (rate o2.Optim.Binlp.nodes solves w2 /. 1e6)

let () =
  let path = "solver_perf.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  List.iter (gate path) instances

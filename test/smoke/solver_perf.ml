(* Solver-throughput smoke test (@solver-perf): solve a fixed
   ablation-class BINLP formulation — the paper's 52-variable shape
   with a product (cache-resource) constraint, sized to explore a few
   hundred thousand branch-and-bound nodes — twice in one process,
   record nodes-per-second for each run, and gate the second run
   against the first with the standard bench-history rules:
   solver_nodes pinned at 1.05x (the formulation is deterministic, so
   any drift is a bug) and binlp_nodes_per_second floored at 0.67x.
   The bench binary applies the same rules to its work counters across
   processes via BENCH_history.jsonl; throughput is gated here, from
   explored nodes over these solves' own time. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* Deterministic ablation-class instance: the paper's shape (SOS1
   option groups, a multiplicative cache-resource coupling, a linear
   budget) sized so the budget binds at roughly a third of the
   variables — the knapsack-like regime where the objective bound
   prunes weakly and the tree genuinely explores a few hundred
   thousand nodes.  All coefficients are exact dyadic rationals, so
   the node count and winner are bit-deterministic. *)
let problem () =
  let nvars = 30 in
  let objective =
    Array.init nvars (fun j -> -.float_of_int ((j * 7 mod 13) + 1) /. 4.0)
  in
  let groups = [ [ 0; 1; 2 ]; [ 3; 4; 5; 6 ] ] in
  let lin coeffs const = { Optim.Binlp.coeffs; const } in
  let w =
    List.init nvars (fun j -> (j, float_of_int ((j * 5 mod 11) + 3) /. 2.0))
  in
  let total = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 w in
  {
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
  }

let run_once p =
  let t0 = Obs.Clock.now_ns () in
  let o = Optim.Binlp.solve p in
  let wall_ns = Int64.sub (Obs.Clock.now_ns ()) t0 in
  (o, Int64.to_float wall_ns /. 1e9)

let entry nodes wall_s =
  let wall_s = if wall_s > 0.0 then wall_s else 1e-9 in
  {
    Obs.History.rev = "solver-perf-smoke";
    target = "solver-perf";
    time = 0.0;
    metrics =
      [
        ("solver_nodes", float_of_int nodes);
        ("binlp_nodes_per_second", float_of_int nodes /. wall_s);
        ("wall_clock_s", wall_s);
      ];
  }

let () =
  let path = "solver_perf.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let p = problem () in
  let o1, w1 = run_once p in
  if o1.Optim.Binlp.status <> Optim.Binlp.Optimal then
    fail "solver hit the node limit on the fixed instance";
  if o1.Optim.Binlp.nodes < 50_000 then
    fail "workload too small to measure: %d nodes" o1.Optim.Binlp.nodes;
  Obs.History.append path (entry o1.Optim.Binlp.nodes w1);
  let o2, w2 = run_once p in
  if o2.Optim.Binlp.nodes <> o1.Optim.Binlp.nodes then
    fail "nondeterministic node count: %d vs %d" o1.Optim.Binlp.nodes
      o2.Optim.Binlp.nodes;
  (match (o1.Optim.Binlp.best, o2.Optim.Binlp.best) with
  | Some a, Some b when a.Optim.Binlp.x = b.Optim.Binlp.x -> ()
  | _ -> fail "nondeterministic winner across identical solves");
  let history =
    match Obs.History.load path with
    | Ok h -> h
    | Error m -> fail "history did not round-trip: %s" m
  in
  (match Obs.History.check ~history (entry o2.Optim.Binlp.nodes w2) with
  | [] -> ()
  | regs ->
      List.iter
        (fun r ->
          Format.eprintf "solver-perf: REGRESSION %a@." Obs.History.pp_regression
            r)
        regs;
      exit 1);
  Obs.History.append path (entry o2.Optim.Binlp.nodes w2);
  Printf.printf
    "solver-perf: %d nodes, %.2f / %.2f Mnodes/s (cold/warm): ok\n"
    o1.Optim.Binlp.nodes
    (float_of_int o1.Optim.Binlp.nodes /. w1 /. 1e6)
    (float_of_int o2.Optim.Binlp.nodes /. w2 /. 1e6)

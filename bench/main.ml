(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (fig1..fig7), plus bechamel micro-benchmarks of the
   system's building blocks (perf).  Run with no arguments for
   everything except perf.

   Each experiment additionally emits a machine-readable
   BENCH_<target>.json next to its ASCII output: wall-clock, simulated
   cycles, solver nodes, build counts (deltas over the run) plus the
   full metrics-registry snapshot.  The shared observability term
   (Obs_cli) provides --trace-out/--metrics-out/--profile-out exactly
   as in the other CLIs.

   History: unless --history none, every experiment appends one JSONL
   entry (git rev, experiment, numeric metrics) to the history file,
   and --check compares the fresh run against the median of the last
   runs first — relative thresholds per metric family — exiting
   nonzero if any experiment regressed.  An experiment whose verified
   runtimes fall outside their static bounds fails the run the same
   way, with or without --check, and so does one that raises (the
   simulator's checksum-mismatch [Failure], say): the remaining
   experiments still run. *)

module Leon2 = Dse.Leon2.S

let ppf = Format.std_formatter

let fig1 () = Dse.Report.print_fig1 ppf

let fig2 () =
  Dse.Report.print_fig2 ppf (Dse.Report.run_fig2 Apps.Registry.blastn)

let fig3 () =
  Dse.Report.print_fig3 ppf (Dse.Report.run_fig3 Apps.Registry.blastn)

let fig4 () = Dse.Report.print_fig4 ppf (Dse.Report.run_fig4 ())
let fig5 () = Dse.Report.print_fig5 ppf (Dse.Report.run_fig5 ())

let fig6 () =
  Dse.Report.print_fig6 ppf (Leon2.Measure.build Apps.Registry.blastn)

let fig7 () = Dse.Report.print_fig7 ppf (Dse.Report.run_fig7 ())

let ablation () =
  Leon2.Ablation.print_noise ppf
    (Leon2.Ablation.noise_study ~weights:Dse.Cost.resource_weights
       Apps.Registry.blastn);
  Format.printf "@.";
  Leon2.Ablation.print_variants ppf
    (Leon2.Ablation.variant_study ~weights:Dse.Cost.runtime_weights
       (Leon2.Measure.build Apps.Registry.frag));
  Format.printf "@.";
  Leon2.Ablation.print_independence ppf
    (Leon2.Ablation.independence_study ~weights:Dse.Cost.runtime_weights)

let energy () =
  Format.printf
    "Energy optimization (paper future work; w1=1, w2=1, w3=100):@.";
  List.iter
    (fun app ->
      Format.printf "%s:@." app.Apps.Registry.name;
      let o = Dse.Energy.optimize ~weights:Dse.Energy.energy_weights app in
      Dse.Energy.print_outcome ppf o)
    Apps.Registry.all

(* Bechamel micro-benchmarks: one per pipeline stage. *)
let perf () =
  let open Bechamel in
  let blastn_prog = Lazy.force Apps.Registry.blastn.Apps.Registry.program in
  let warm_epoch =
    Test.make ~name:"sim: BLASTN warm epoch" (Staged.stage (fun () ->
        ignore (Sim.Machine.run ~reps:2 Arch.Config.base blastn_prog)))
  in
  let synth_estimate =
    Test.make ~name:"synth: resource estimate" (Staged.stage (fun () ->
        ignore (Synth.Estimate.config Arch.Config.base)))
  in
  let compile =
    Test.make ~name:"minic: compile BLASTN" (Staged.stage (fun () ->
        ignore (Minic.Codegen.compile Apps.Blastn.program)))
  in
  let model = Leon2.Measure.build ~dims:Arch.Param.dcache_size_dims Apps.Registry.blastn in
  let solver =
    Test.make ~name:"binlp: dcache model solve" (Staged.stage (fun () ->
        ignore (Optim.Binlp.solve (Leon2.Formulate.make Dse.Cost.runtime_only model))))
  in
  let cache =
    let c =
      Sim.Cache.create ~ways:2 ~way_kb:4 ~line_words:8
        ~replacement:Arch.Config.Lru ~rng:(Sim.Rng.create ~seed:1)
    in
    Test.make ~name:"cache: read probe" (Staged.stage (fun () ->
        ignore (Sim.Cache.read c 0x1040)))
  in
  let tests = Test.make_grouped ~name:"uarch-reconf" [ warm_epoch; compile; synth_estimate; solver; cache ] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Format.printf "Micro-benchmarks (bechamel, monotonic clock):@.";
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some (est :: _) -> Format.printf "  %-40s %14.1f ns/run@." name est
      | Some [] | None -> Format.printf "  %-40s (no estimate)@." name)
    (List.sort compare rows)

let baselines () =
  Format.printf
    "Heuristic DSE baselines vs the paper's method (w1=100, w2=1)@.";
  Format.printf
    "(builds = configurations synthesized and executed; the paper budgets \
     ~30 min each)@.";
  List.iter
    (fun app ->
      let weights = Dse.Cost.runtime_weights in
      let paper = Leon2.Heuristic.paper_method ~weights app in
      let descent =
        Leon2.Heuristic.coordinate_descent
          ~features:(Apps.Features.of_app app)
          ~weights app
      in
      let random56 =
        Leon2.Heuristic.random_search ~builds:paper.Leon2.Heuristic.builds
          ~weights app
      in
      let random200 = Leon2.Heuristic.random_search ~builds:200 ~weights app in
      Leon2.Heuristic.print_comparison ppf app.Apps.Registry.name
        [ paper; descent; random56; random200 ])
    Apps.Registry.all

(* Static-vs-scheduled figure (ROADMAP item 2): phase-aware
   reconfiguration head to head with the static optimum on every
   target, over apps with distinct phase structure.  Single-phase apps
   collapse to the static pick by construction; the bi-modal [phases]
   kernel is the showcase where the schedule wins net of switches. *)
let phases_fig () =
  Format.printf
    "Static vs phase-scheduled reconfiguration (w1=100, w2=1, schedule \
     dimensions):@.";
  List.iter
    (fun (module T : Dse.Target.S) ->
      let module S = Dse.Stack.Make (T) in
      Format.printf "%s:@." T.name;
      List.iter
        (fun app ->
          let o = S.Schedule.run ~weights:Dse.Cost.runtime_weights app in
          S.Schedule.print ppf o)
        [
          Apps.Registry.blastn; Apps.Registry.drr; Apps.Registry.frag;
          Apps.Extra.phases;
        ])
    Dse.Targets.all

let experiments =
  [
    ("fig1", fig1); ("fig2", fig2); ("fig3", fig3); ("fig4", fig4);
    ("fig5", fig5); ("fig6", fig6); ("fig7", fig7);
    ("ablation", ablation); ("energy", energy); ("baselines", baselines);
    ("phases", phases_fig);
  ]

(* The numeric per-experiment measurements: the deltas of the
   interesting registry counters over the experiment's execution.
   These drive both the BENCH_<name>.json fields and the history
   entry, so the regression gate checks exactly what the JSON
   reports. *)
let measurements ~wall_ns ~(before : Obs.Metrics.snapshot)
    ~(after : Obs.Metrics.snapshot) =
  let delta key =
    Obs.Metrics.counter_value after key - Obs.Metrics.counter_value before key
  in
  let gauge key =
    match Obs.Metrics.find after key with
    | Some (Obs.Metrics.Gauge v) -> v
    | _ -> 0.0
  in
  [
    ("wall_clock_s", Int64.to_float wall_ns /. 1e9);
    ("sim_cycles", float_of_int (delta "sim.cycles"));
    ("sim_executed_cycles", float_of_int (delta "sim.executed_cycles"));
    ("sim_runs", float_of_int (delta "sim.runs"));
    ("sim_replays", float_of_int (delta "sim.replays"));
    ("sim_replay_refs", float_of_int (delta "sim.replay.refs"));
    ("solver_nodes", float_of_int (delta "binlp.nodes"));
    ("solver_incumbents", float_of_int (delta "binlp.incumbents"));
    ("builds", float_of_int (delta "dse.builds"));
    ("bounds_computed", float_of_int (delta "dse.bounds.computed"));
    ("bounds_pruned", float_of_int (delta "dse.bounds.pruned"));
    ("engine_hits", float_of_int (delta "dse.engine.hits"));
    ("engine_misses", float_of_int (delta "dse.engine.misses"));
    ("engine_priced", float_of_int (delta "dse.engine.priced"));
    ("engine_inflight_dedup", float_of_int (delta "dse.engine.inflight_dedup"));
    ("heuristic_builds", float_of_int (delta "heuristic.builds"));
    (* peak, not post-join: the gauge is a monotone high-water mark,
       so the value survives pool shutdown (see {!Dse.Pool}) *)
    ("pool_tasks", float_of_int (delta "dse.pool.tasks"));
    ("pool_workers", gauge "dse.pool.workers");
    ("decode_programs", float_of_int (delta "sim.decode.programs"));
    ("decode_insns", float_of_int (delta "sim.decode.insns"));
    ("phases_detected", float_of_int (delta "dse.schedule.phases"));
    ("schedule_solver_nodes", float_of_int (delta "dse.schedule.nodes"));
    (* last verified scheduled-vs-static gain; a gauge, not a delta *)
    ("schedule_gain_pct", gauge "dse.schedule.gain_pct");
  ]

(* "wall_clock_s" and the gain gauge are floats; every counter delta
   renders as an int so the JSON stays shaped as before. *)
let float_keys = [ "wall_clock_s"; "schedule_gain_pct" ]

let measurement_json (key, v) =
  if List.mem key float_keys then (key, Obs.Json.Float v)
  else (key, Obs.Json.Int (int_of_float v))

(* Summary of the engine's build-duration histogram (whole process so
   far): count, sum and log2-bucket p50/p99 upper estimates. *)
let build_seconds_json (after : Obs.Metrics.snapshot) =
  match Obs.Metrics.find after "dse.engine.build_seconds" with
  | Some (Obs.Metrics.Histogram { count; sum; _ } as h) when count > 0 ->
      let q p =
        match Obs.Metrics.quantile p h with
        | Some le -> Obs.Json.Float le
        | None -> Obs.Json.Null
      in
      Obs.Json.Obj
        [
          ("count", Obs.Json.Int count);
          ("sum", Obs.Json.Float sum);
          ("p50", q 0.5);
          ("p99", q 0.99);
        ]
  | _ -> Obs.Json.Null

(* Profiler cost accounting for one experiment: samples taken and span
   boundaries crossed during it, and the calibrated overhead estimate
   as a percentage of the experiment's wall clock. *)
let profiler_json ~wall_ns ~samples ~ops =
  let overhead = Obs.Profile.overhead_ns ~ops ~samples in
  Obs.Json.Obj
    [
      ("samples", Obs.Json.Int samples);
      ("span_ops", Obs.Json.Int ops);
      ( "overhead_pct",
        Obs.Json.Float
          (if wall_ns > 0L then overhead /. Int64.to_float wall_ns *. 100.0
           else 0.0) );
    ]

let bench_json name ~ms ~profiler ~(after : Obs.Metrics.snapshot) =
  Obs.Json.Obj
    ([ ("target", Obs.Json.String name) ]
    @ List.map measurement_json ms
    @ [ ("build_seconds", build_seconds_json after) ]
    @ (match profiler with None -> [] | Some j -> [ ("profiler", j) ])
    @ [ ("metrics", Obs.Metrics.to_json after) ])

let write_bench name json =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Obs.Json.to_string json));
  Format.eprintf "wrote %s@." path

let git_rev () =
  match Sys.getenv_opt "BENCH_GIT_REV" with
  | Some r -> r
  | None -> (
      try
        let ic =
          Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
        in
        let line = try input_line ic with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "unknown"
      with _ -> "unknown")

exception Bail of int

(* The history file, opened for append (and, under --check, loaded)
   before any experiment runs, so a bad path or a malformed file costs
   no run.  [entries] grows with this run's own entries, which a
   repeated experiment name is checked against. *)
type history = { oc : out_channel; mutable entries : Obs.History.entry list }

let open_history ~check path =
  let fail m =
    Format.eprintf "bench: bad --history file: %s@." m;
    raise (Bail 2)
  in
  match if check then Obs.History.load path else Ok [] with
  | Error m -> fail m
  | Ok entries -> (
      match open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path with
      | exception Sys_error m -> fail m
      | oc -> { oc; entries })

(* Besides the history gate, an experiment fails the run when one of
   its verified runtimes fell outside its static bounds
   ([dse.bounds.violations]): the bounds analysis or the simulator is
   wrong.  [main] has already rejected every name but the experiments'
   and "perf". *)
let run_experiment ~history ~check ~rev ~profiling ~failed regressions name =
  match List.assoc_opt name experiments with
  | None -> perf ()
  | Some f ->
      let before = Obs.Metrics.snapshot () in
      let samples0 = Obs.Profile.total_samples () in
      let ops0 = Obs.Profile.span_ops () in
      let t0 = Obs.Clock.now_ns () in
      Obs.Span.with_ ~cat:"bench" ("bench." ^ name) (fun () ->
          Format.printf "@.";
          f ();
          Format.printf "@.");
      let wall_ns = Int64.sub (Obs.Clock.now_ns ()) t0 in
      let after = Obs.Metrics.snapshot () in
      let violations =
        Obs.Metrics.counter_value after "dse.bounds.violations"
        - Obs.Metrics.counter_value before "dse.bounds.violations"
      in
      if violations > 0 then begin
        Format.eprintf "%s: %d static-bounds violation(s)@." name violations;
        failed := true
      end;
      let ms = measurements ~wall_ns ~before ~after in
      let profiler =
        if profiling then
          Some
            (profiler_json ~wall_ns
               ~samples:(Obs.Profile.total_samples () - samples0)
               ~ops:(Obs.Profile.span_ops () - ops0))
        else None
      in
      write_bench name (bench_json name ~ms ~profiler ~after);
      Option.iter
        (fun h ->
          let entry =
            {
              Obs.History.rev = Lazy.force rev;
              target = name;
              time = Unix.gettimeofday ();
              metrics = ms;
            }
          in
          (if check then
             let regs = Obs.History.check ~history:h.entries entry in
             List.iter
               (fun r ->
                 Format.eprintf "%s: REGRESSION %a@." name
                   Obs.History.pp_regression r)
               regs;
             if regs <> [] then regressions := (name, regs) :: !regressions);
          Obs.History.write h.oc entry;
          h.entries <- h.entries @ [ entry ])
        history

(* Every name and the history file are checked before anything runs,
   so a typo cannot cost the experiments listed before it. *)
let main names check history rev obs =
  let body () =
    (match
       List.find_opt
         (fun name -> name <> "perf" && not (List.mem_assoc name experiments))
         names
     with
    | None -> ()
    | Some name ->
        Format.eprintf "unknown experiment %S; known: %s, perf@." name
          (String.concat ", " (List.map fst experiments));
        raise (Bail 2));
    let history =
      match history with
      | "none" | "" -> None
      | path -> Some (open_history ~check path)
    in
    Fun.protect ~finally:(fun () ->
        Option.iter (fun h -> close_out_noerr h.oc) history)
    @@ fun () ->
    Obs_cli.with_reporting obs "bench" @@ fun () ->
    let rev =
      lazy (match rev with Some r -> r | None -> git_rev ())
    in
    let profiling = obs.Obs_cli.profile_out <> None in
    let regressions = ref [] and failed = ref false in
    (* An exception fails its experiment only. *)
    let run name =
      try
        run_experiment ~history ~check ~rev ~profiling ~failed regressions name
      with e ->
        Format.eprintf "%s: failed: %s@." name (Printexc.to_string e);
        failed := true
    in
    (match names with
    | [] -> List.iter (fun (n, _) -> run n) experiments
    | names -> List.iter run names);
    (match !regressions with
    | [] -> ()
    | regs ->
        Format.eprintf "bench --check: %d experiment(s) regressed@."
          (List.length regs));
    if !regressions = [] && not !failed then 0 else 1
  in
  match body () with code -> code | exception Bail code -> code

let cmd =
  let open Cmdliner in
  let names_arg =
    let doc =
      "Experiments to run (default: all except perf).  Known: fig1..fig7, \
       ablation, energy, baselines, phases, perf."
    in
    Arg.(value & pos_all string [] & info [] ~doc ~docv:"EXPERIMENT")
  in
  let check_arg =
    let doc =
      "Compare each experiment's fresh measurements against the median of \
       its recent history entries and exit nonzero if any metric crosses \
       its relative threshold."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let history_arg =
    let doc =
      "Append each experiment's measurements to this JSONL history file \
       ($(b,none) to disable history entirely)."
    in
    Arg.(
      value & opt string "BENCH_history.jsonl" & info [ "history" ] ~doc ~docv:"FILE")
  in
  let rev_arg =
    let doc =
      "Revision label for history entries (default: $(b,BENCH_GIT_REV) or \
       $(b,git rev-parse --short HEAD))."
    in
    Arg.(value & opt (some string) None & info [ "rev" ] ~doc ~docv:"REV")
  in
  let doc = "regenerate the paper's evaluation and gate on bench history" in
  let exits =
    Cmd.Exit.info 1
      ~doc:
        "when an experiment regressed under $(b,--check), saw a static-bounds \
         violation or failed; the other experiments still run."
    :: Cmd.Exit.info 2
         ~doc:
           "before any experiment runs: on an unknown experiment, an \
            unreadable or unwritable $(b,--history) file (a malformed one \
            under $(b,--check)), or when a $(b,--trace-out), \
            $(b,--metrics-out) or $(b,--profile-out) file cannot be opened."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "bench" ~doc ~exits)
    Term.(
      const main $ names_arg $ check_arg $ history_arg $ rev_arg $ Obs_cli.term)

let () = exit (Cmdliner.Cmd.eval' cmd)

(* @phase-smoke alias: the whole phase-aware pipeline — detect, per-
   phase measurement, schedule solve, phased verification — on every
   registered target, using the deliberately bi-modal [phases] kernel.
   Checks, per target: at least two phases are detected, every
   per-phase configuration is valid and fits the device, the 1-phase
   degenerate path agrees bit-exactly with the static optimizer, the
   schedule's verified runtime does not lose to the verified static
   pick (the dominance the formulation is built around), and each
   schedule run on a cleared engine builds every configuration at most
   once and simulates exactly once: the schedule dims are all cache
   dims, so every configuration it detects, measures or verifies is of
   one execution class, answered by one recording.  Every lookup of a
   schedule run is a miss that is a build or priced: per-segment
   measurement counts none, and nothing is looked up twice in one
   batch. *)

let builds = Obs.Metrics.Counter.v "dse.builds"
let runs = Obs.Metrics.Counter.v "sim.runs"
let misses = Obs.Metrics.Counter.v "dse.engine.misses"
let priced = Obs.Metrics.Counter.v "dse.engine.priced"
let dedups = Obs.Metrics.Counter.v "dse.engine.inflight_dedup"

(* [f ()] on a cleared engine with the journal on: no (app, config) may
   get two [engine.build] events, the events must account for every
   build [dse.builds] counted, [sim.runs] must move by one,
   [dse.engine.misses] by exactly [dse.builds + dse.engine.priced], and
   [dse.engine.inflight_dedup] not at all. *)
let built_once label f =
  Dse.Engine.clear (Dse.Engine.default ());
  Obs.Journal.clear ();
  Obs.Journal.set_enabled true;
  let value = Obs.Metrics.Counter.value in
  let b0 = value builds and r0 = value runs in
  let m0 = value misses and p0 = value priced and d0 = value dedups in
  let x = Fun.protect ~finally:(fun () -> Obs.Journal.set_enabled false) f in
  let moved = value builds - b0 in
  let simulated = value runs - r0 in
  if simulated <> 1 then (
    Printf.eprintf "%s: sim.runs moved by %d in one schedule run, expected 1\n"
      label simulated;
    exit 1);
  let missed = value misses - m0 and pricings = value priced - p0 in
  if missed <> moved + pricings then (
    Printf.eprintf
      "%s: dse.engine.misses moved by %d, dse.builds + dse.engine.priced by \
       %d\n"
      label missed (moved + pricings);
    exit 1);
  if value dedups <> d0 then (
    Printf.eprintf "%s: dse.engine.inflight_dedup moved by %d\n" label
      (value dedups - d0);
    exit 1);
  let built =
    List.filter_map
      (fun (e : Obs.Trace.event) ->
        if e.Obs.Trace.name <> "engine.build" then None
        else
          let field k =
            match List.assoc_opt k e.Obs.Trace.args with
            | Some (Obs.Json.String s) -> s
            | _ -> "?"
          in
          Some (field "app" ^ " " ^ field "config"))
      (Obs.Journal.events ())
  in
  Obs.Journal.clear ();
  let sorted = List.sort compare built in
  let rec twice = function
    | a :: (b :: _ as rest) -> if a = b then Some a else twice rest
    | _ -> None
  in
  (match twice sorted with
  | Some c ->
      Printf.eprintf "%s: configuration built twice in one schedule run: %s\n"
        label c;
      exit 1
  | None -> ());
  if moved <> List.length built then (
    Printf.eprintf "%s: dse.builds moved by %d, %d engine.build events\n" label
      moved (List.length built);
    exit 1);
  x

let () =
  let app = Apps.Extra.phases in
  List.iter
    (fun (module T : Dse.Target.S) ->
      let module S = Dse.Stack.Make (T) in
      let weights = Dse.Cost.runtime_weights in
      let o = built_once T.name (fun () -> S.Schedule.run ~weights app) in
      let n = Sim.Phase.count o.S.Schedule.phases in
      if n < 2 then (
        Printf.eprintf "%s: expected >= 2 phases on %s, detected %d\n" T.name
          app.Apps.Registry.name n;
        exit 1);
      (match o.S.Schedule.plan with
      | S.Schedule.Static c ->
          if not (T.feasible c) then (
            Printf.eprintf "%s: static plan does not fit the device\n" T.name;
            exit 1)
      | S.Schedule.Phased schedule ->
          List.iter
            (fun (_, c) ->
              if not (T.feasible c) then (
                Printf.eprintf "%s: phase configuration does not fit\n" T.name;
                exit 1))
            schedule);
      if o.S.Schedule.scheduled_seconds > o.S.Schedule.static_seconds *. (1.0 +. 1e-9)
      then (
        Printf.eprintf "%s: schedule (%.9fs) lost to static (%.9fs)\n" T.name
          o.S.Schedule.scheduled_seconds o.S.Schedule.static_seconds;
        exit 1);
      Printf.printf
        "%-12s %s: %d phases, static %.6fs -> scheduled %.6fs (%+.2f%%, %d \
         switch cycles, %d nodes)\n"
        T.name app.Apps.Registry.name n o.S.Schedule.static_seconds
        o.S.Schedule.scheduled_seconds o.S.Schedule.gain_percent
        o.S.Schedule.switch_cycles o.S.Schedule.solve_nodes;
      (* The one-phase degenerate path must reproduce the static
         optimizer exactly: force a segmentation with no interior
         boundaries by raising the window past the whole run. *)
      let coarse =
        {
          Sim.Phase.default_options with
          Sim.Phase.window = max 1 o.S.Schedule.phases.Sim.Phase.total_insns;
        }
      in
      let one =
        built_once (T.name ^ " (one phase)") (fun () ->
            S.Schedule.run ~options:coarse ~weights app)
      in
      if Sim.Phase.count one.S.Schedule.phases <> 1 then (
        Printf.eprintf "%s: coarse segmentation still found %d phases\n" T.name
          (Sim.Phase.count one.S.Schedule.phases);
        exit 1);
      let static_config =
        match one.S.Schedule.plan with
        | S.Schedule.Static c -> c
        | S.Schedule.Phased _ ->
            Printf.eprintf "%s: one-phase run produced a phased plan\n" T.name;
            exit 1
      in
      let reference =
        S.Optimizer.run ~dims:T.schedule_dims ~weights app
      in
      if not (T.equal static_config reference.S.Optimizer.config) then (
        Printf.eprintf "%s: one-phase schedule disagrees with the static \
                        optimizer (%s vs %s)\n"
          T.name
          (T.to_string static_config)
          (T.to_string reference.S.Optimizer.config);
        exit 1))
    Dse.Targets.all;
  print_endline "phase smoke: ok"

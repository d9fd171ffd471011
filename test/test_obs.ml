(* Observability layer: JSON round-trips, the metrics registry under
   domain contention, the Chrome trace-event export format (golden
   structure: stable field order, non-negative monotonic timestamps,
   properly nested complete events), the decision journal as the
   trace's "journal" category, and the simulator profiler's structural
   invariants. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Json --- *)

let sample =
  Obs.Json.(
    Obj
      [
        ("name", String "solve \"quoted\"\n");
        ("count", Int 42);
        ("ratio", Float 0.125);
        ("flag", Bool true);
        ("nothing", Null);
        ("xs", List [ Int 1; Int 2; Int 3 ]);
        ("nested", Obj [ ("k", String "v") ]);
      ])

let test_json_roundtrip () =
  match Obs.Json.parse (Obs.Json.to_string sample) with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok v ->
      Alcotest.(check string)
        "round-trip" (Obs.Json.to_string sample) (Obs.Json.to_string v)

let test_json_field_order_preserved () =
  (* The parser keeps object field order, which is what lets the golden
     trace test below assert the exporter's field order. *)
  match Obs.Json.parse {|{"b":1,"a":2,"c":3}|} with
  | Ok (Obs.Json.Obj fields) ->
      Alcotest.(check (list string)) "order" [ "b"; "a"; "c" ]
        (List.map fst fields)
  | Ok _ | Error _ -> Alcotest.fail "expected object"

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "{\"a\" 1}"; "1 2" ]

let test_json_float_precision () =
  (* Floats must round-trip exactly: the old %.12g emission dropped
     precision on re-parsed metrics/trace values (0.1 +. 0.2 came back
     as 0.3).  Values with short decimal forms keep them. *)
  let roundtrip f =
    match Obs.Json.parse (Obs.Json.to_string (Obs.Json.Float f)) with
    | Ok (Obs.Json.Float f') -> f'
    | Ok _ -> Alcotest.failf "%h did not parse back as a float" f
    | Error m -> Alcotest.failf "%h: parse failed: %s" f m
  in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%h round-trips" f)
        true
        (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float (roundtrip f))))
    [
      0.1 +. 0.2;
      1.0 /. 3.0;
      Float.pi;
      1.000000000001234;
      2.5e-12;
      1.7976931348623157e308;
      5e-324;
      -4.9406564584124654e-324;
      123456789.123456789;
    ];
  (* The integral fast path survives. *)
  Alcotest.(check string) "integral float" "42.0"
    (Obs.Json.to_string (Obs.Json.Float 42.0));
  Alcotest.(check string) "short decimal stays short" "0.5"
    (Obs.Json.to_string (Obs.Json.Float 0.5))

let test_json_escapes () =
  let v = Obs.Json.String "tab\there \"q\" back\\slash" in
  match Obs.Json.parse (Obs.Json.to_string v) with
  | Ok v' -> Alcotest.(check string) "escapes" (Obs.Json.to_string v) (Obs.Json.to_string v')
  | Error m -> Alcotest.failf "parse failed: %s" m

(* --- Metrics --- *)

let test_counter_across_domains () =
  let c = Obs.Metrics.Counter.v "test.contended" in
  let before = Obs.Metrics.Counter.value c in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Obs.Metrics.Counter.incr c
            done))
  in
  List.iter Domain.join domains;
  check_int "no lost increments" (before + 40_000) (Obs.Metrics.Counter.value c)

let test_gauge_and_histogram () =
  let g = Obs.Metrics.Gauge.v "test.gauge" in
  Obs.Metrics.Gauge.set g 2.5;
  Alcotest.(check (float 1e-9)) "gauge" 2.5 (Obs.Metrics.Gauge.value g);
  let h = Obs.Metrics.Histogram.v "test.hist" in
  let observations = [ 0.0; 0.001; 0.5; 1.0; 3.0; 1024.0; 1e9 ] in
  List.iter (Obs.Metrics.Histogram.observe h) observations;
  check_int "count" (List.length observations) (Obs.Metrics.Histogram.count h);
  Alcotest.(check (float 1e-3))
    "sum"
    (List.fold_left ( +. ) 0.0 observations)
    (Obs.Metrics.Histogram.sum h);
  match Obs.Metrics.find (Obs.Metrics.snapshot ()) "test.hist" with
  | Some (Obs.Metrics.Histogram { count; buckets; _ }) ->
      check_int "snapshot count" (List.length observations) count;
      check_int "buckets partition the observations" count
        (List.fold_left (fun acc (_, c) -> acc + c) 0 buckets);
      check_bool "bucket bounds ascend" true
        (let les = List.map fst buckets in
         List.sort compare les = les)
  | _ -> Alcotest.fail "histogram missing from snapshot"

let test_type_clash_rejected () =
  ignore (Obs.Metrics.Counter.v "test.clash");
  check_bool "re-register same type ok" true
    (ignore (Obs.Metrics.Counter.v "test.clash");
     true);
  match Obs.Metrics.Gauge.v "test.clash" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_metrics_json_parses () =
  let json = Obs.Json.to_string (Obs.Metrics.to_json (Obs.Metrics.snapshot ())) in
  match Obs.Json.parse json with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "metrics dump does not parse: %s" m

(* --- Chrome trace export (golden format) --- *)

let with_tracing f =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Trace.set_enabled false) f

let names evs = List.map (fun (e : Obs.Trace.event) -> e.Obs.Trace.name) evs

let record_sample_spans () =
  Obs.Span.with_ ~cat:"test" "root" (fun () ->
      Obs.Span.with_ ~cat:"test" "child"
        ~attrs:[ ("k", Obs.Json.String "v") ]
        (fun () -> Obs.Span.event ~cat:"test" "instant");
      Obs.Span.with_ ~cat:"test" "sibling" (fun () -> ()))

let exported_events () =
  match Obs.Json.parse (Obs.Export.trace_to_string ()) with
  | Error m -> Alcotest.failf "trace does not parse: %s" m
  | Ok json -> (
      check_bool "displayTimeUnit present" true
        (Obs.Json.member "displayTimeUnit" json = Some (Obs.Json.String "ms"));
      match Obs.Json.member "traceEvents" json with
      | Some (Obs.Json.List evs) -> evs
      | _ -> Alcotest.fail "traceEvents missing")

let fields_of ev =
  match ev with
  | Obs.Json.Obj fields -> fields
  | _ -> Alcotest.fail "event is not an object"

let num field ev =
  match Obs.Json.member field ev with
  | Some v -> (
      match Obs.Json.to_float v with
      | Some f -> f
      | None -> Alcotest.failf "field %s is not a number" field)
  | None -> Alcotest.failf "field %s missing" field

let test_trace_golden_format () =
  with_tracing (fun () ->
      record_sample_spans ();
      let evs = exported_events () in
      check_int "event count" 4 (List.length evs);
      List.iter
        (fun ev ->
          let keys = List.map fst (fields_of ev) in
          match Obs.Json.member "ph" ev with
          | Some (Obs.Json.String "X") ->
              Alcotest.(check (list string))
                "complete-event field order"
                [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid"; "args" ]
                keys;
              check_bool "ts >= 0" true (num "ts" ev >= 0.0);
              check_bool "dur >= 0" true (num "dur" ev >= 0.0)
          | Some (Obs.Json.String "i") ->
              Alcotest.(check (list string))
                "instant-event field order"
                [ "name"; "cat"; "ph"; "ts"; "s"; "pid"; "tid"; "args" ]
                keys;
              check_bool "ts >= 0" true (num "ts" ev >= 0.0)
          | _ -> Alcotest.fail "unexpected phase (only X and i are emitted)")
        evs;
      let ts = List.map (num "ts") evs in
      check_bool "timestamps monotonic" true (List.sort compare ts = ts))

let test_trace_nesting () =
  with_tracing (fun () ->
      record_sample_spans ();
      let evs = exported_events () in
      let find name =
        List.find
          (fun ev -> Obs.Json.member "name" ev = Some (Obs.Json.String name))
          evs
      in
      let interval name =
        let ev = find name in
        let ts = num "ts" ev in
        (ts, ts +. num "dur" ev)
      in
      let r0, r1 = interval "root" in
      let c0, c1 = interval "child" in
      let s0, s1 = interval "sibling" in
      check_bool "child inside root" true (r0 <= c0 && c1 <= r1);
      check_bool "sibling inside root" true (r0 <= s0 && s1 <= r1);
      check_bool "child and sibling disjoint" true (c1 <= s0 || s1 <= c0);
      let i = num "ts" (find "instant") in
      check_bool "instant inside child" true (c0 <= i && i <= c1))

let test_trace_disabled_records_nothing () =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled false;
  Obs.Span.with_ "invisible" (fun () -> ());
  Obs.Span.event "invisible-too";
  check_int "no events" 0 (List.length (Obs.Trace.events ()))

let test_trace_across_domains () =
  (* Each task spins a couple of milliseconds: the pool's submitting
     caller also executes tasks, and instant tasks could all drain on
     one domain before the workers wake, voiding the multi-tid
     assertion below. *)
  let spin () =
    let rec go n acc = if n = 0 then acc else go (n - 1) (acc + 1) in
    ignore (Sys.opaque_identity (go 2_000_000 0))
  in
  with_tracing (fun () ->
      let results =
        Dse.Pool.map (Dse.Pool.default ())
          (fun i ->
            Obs.Span.with_ ~cat:"test" "worker-span" (fun () ->
                spin ();
                i * 2))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      check_bool "map result intact" true
        (results = [ 2; 4; 6; 8; 10; 12; 14; 16 ]);
      let spans =
        List.filter
          (fun (e : Obs.Trace.event) -> e.Obs.Trace.name = "worker-span")
          (Obs.Trace.events ())
      in
      (* Pool.map's own pool.batch span, on the caller's domain, is
         not a worker-span *)
      check_int "every worker span captured" 8 (List.length spans);
      check_bool "workers recorded under their own domain ids" true
        (List.length
           (List.sort_uniq compare
              (List.map (fun (e : Obs.Trace.event) -> e.Obs.Trace.tid) spans))
        > 1))

let test_trace_equal_ts_append_order () =
  with_tracing (fun () ->
      let at name =
        {
          Obs.Trace.name;
          cat = "test";
          ph = Obs.Trace.Instant;
          ts_ns = 42L;
          dur_ns = 0L;
          tid = (Domain.self () :> int);
          args = [];
        }
      in
      Obs.Trace.record (at "first");
      Obs.Trace.record (at "second");
      Alcotest.(check (list string))
        "append order" [ "first"; "second" ]
        (names (Obs.Trace.events ())))

(* --- Profiler invariants --- *)

let test_profiler_invariants () =
  let r = Apps.Registry.run Apps.Registry.arith in
  (match Sim.Profiler.check r.Sim.Machine.profile with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariants violated: %s" m);
  let assoc = Sim.Profiler.to_assoc r.Sim.Machine.profile in
  check_int "all 19 counters exported" 19 (List.length assoc);
  check_int "cycles row matches" r.Sim.Machine.profile.Sim.Profiler.cycles
    (List.assoc "cycles" assoc);
  (* a stall beyond its candidates is caught, each by name *)
  let broken name f =
    let p = Sim.Profiler.copy r.Sim.Machine.profile in
    f p;
    match Sim.Profiler.check p with
    | Ok () -> Alcotest.failf "expected a %s violation" name
    | Error m -> check_string "names the broken invariant" name m
  in
  broken "load interlocks <= load uses" (fun p ->
      p.Sim.Profiler.load_interlocks <- p.Sim.Profiler.load_uses + 1);
  broken "icc hold stalls <= icc waits" (fun p ->
      p.Sim.Profiler.icc_hold_stalls <- p.Sim.Profiler.icc_waits + 1)

let test_profiler_invariants_all_apps () =
  List.iter
    (fun app ->
      let r = Apps.Registry.run app in
      match Sim.Profiler.check r.Sim.Machine.profile with
      | Ok () -> ()
      | Error m ->
          Alcotest.failf "%s: invariants violated: %s" app.Apps.Registry.name m)
    [ Apps.Registry.arith; Apps.Registry.frag ]

let test_profiler_json () =
  let r = Apps.Registry.run Apps.Registry.arith in
  match
    Obs.Json.parse (Obs.Json.to_string (Sim.Profiler.to_json r.Sim.Machine.profile))
  with
  | Ok (Obs.Json.Obj fields) -> check_int "profile fields" 19 (List.length fields)
  | Ok _ -> Alcotest.fail "expected object"
  | Error m -> Alcotest.failf "profile json does not parse: %s" m

let test_check_catches_violation () =
  let p = Sim.Profiler.create () in
  p.Sim.Profiler.cycles <- 10;
  p.Sim.Profiler.instructions <- 20;
  match Sim.Profiler.check p with
  | Ok () -> Alcotest.fail "expected instructions <= cycles violation"
  | Error m ->
      check_bool "names the broken invariant" true
        (String.length m > 0
        && Str.string_match (Str.regexp ".*instructions <= cycles.*") m 0)

(* --- Journal: the "journal" category of the trace --- *)

let journal_instants evs =
  List.filter
    (fun (e : Obs.Trace.event) ->
      e.Obs.Trace.cat = "journal" && e.Obs.Trace.ph = Obs.Trace.Instant)
    evs

let test_journal_disabled_records_nothing () =
  Obs.Journal.clear ();
  Obs.Journal.set_enabled false;
  Obs.Journal.record ~kind:"test.invisible" [];
  check_int "no events" 0 (List.length (Obs.Journal.events ()))

let with_journal f =
  Obs.Journal.clear ();
  Obs.Journal.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Journal.set_enabled false;
      Obs.Journal.clear ())
    f

let test_journal_records_fields () =
  with_journal (fun () ->
      Obs.Journal.record ~kind:"test.first" [ ("n", Obs.Json.Int 1) ];
      Obs.Journal.record ~kind:"test.second" [ ("s", Obs.Json.String "x") ];
      match Obs.Journal.events () with
      | [ a; b ] ->
          Alcotest.(check string) "kind" "test.first" a.Obs.Trace.name;
          check_bool "field kept" true
            (a.Obs.Trace.args = [ ("n", Obs.Json.Int 1) ]);
          check_bool "merged order monotone" true
            (Int64.compare a.Obs.Trace.ts_ns b.Obs.Trace.ts_ns <= 0);
          check_bool "exported as a journal instant" true
            (List.exists
               (fun ev ->
                 Obs.Json.member "name" ev = Some (Obs.Json.String "test.second")
                 && Obs.Json.member "cat" ev = Some (Obs.Json.String "journal")
                 && Obs.Json.member "ph" ev = Some (Obs.Json.String "i"))
               (exported_events ()))
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let test_journal_mirrors_into_trace () =
  with_journal (fun () ->
      with_tracing (fun () ->
          Obs.Journal.record ~kind:"test.mirrored" [ ("n", Obs.Json.Int 7) ];
          let instants =
            List.filter
              (fun (e : Obs.Trace.event) -> e.Obs.Trace.name = "test.mirrored")
              (journal_instants (Obs.Trace.events ()))
          in
          check_int "one journal instant in the trace" 1 (List.length instants)))

let test_journal_per_domain_monotone () =
  with_journal (fun () ->
      let results =
        Dse.Pool.map (Dse.Pool.default ())
          (fun i ->
            Obs.Journal.record ~kind:"test.tick" [ ("i", Obs.Json.Int i) ];
            i)
          [ 1; 2; 3; 4; 5; 6 ]
      in
      check_bool "map intact" true (results = [ 1; 2; 3; 4; 5; 6 ]);
      let ticks =
        List.filter
          (fun (e : Obs.Trace.event) -> e.Obs.Trace.name = "test.tick")
          (Obs.Journal.events ())
      in
      check_int "no event lost" 6 (List.length ticks);
      List.iter
        (fun (_, evs) ->
          let ts =
            List.map
              (fun (e : Obs.Trace.event) -> e.Obs.Trace.ts_ns)
              (journal_instants evs)
          in
          check_bool "domain buffer monotone" true
            (List.sort Int64.compare ts = ts))
        (Obs.Trace.events_by_domain ()))

let test_journal_clear_keeps_spans () =
  with_journal (fun () ->
      with_tracing (fun () ->
          Obs.Span.with_ ~cat:"test" "kept" (fun () ->
              Obs.Journal.record ~kind:"test.dropped" []);
          Obs.Journal.clear ();
          check_int "journal emptied" 0 (List.length (Obs.Journal.events ()));
          Alcotest.(check (list string))
            "span kept" [ "kept" ]
            (names (Obs.Trace.events ()))))

let test_journal_without_tracing () =
  Obs.Trace.clear ();
  with_journal (fun () ->
      Obs.Span.with_ ~cat:"test" "untraced" (fun () ->
          Obs.Journal.record ~kind:"test.alone" []);
      let evs = Obs.Trace.events () in
      Alcotest.(check (list string)) "only the journal instant" [ "test.alone" ]
        (names evs);
      check_bool "a journal instant" true (journal_instants evs = evs))

(* --- Sampling profiler --- *)

let spin_for seconds =
  let t0 = Obs.Clock.since_start_ns () in
  let budget = Int64.of_float (seconds *. 1e9) in
  let rec go acc =
    if Int64.sub (Obs.Clock.since_start_ns ()) t0 < budget then
      go (Sys.opaque_identity (acc + 1))
    else acc
  in
  ignore (go 0)

let test_sampling_profiler_captures_spans () =
  Obs.Profile.reset ();
  Obs.Profile.start ~period:0.001 ();
  Fun.protect ~finally:Obs.Profile.stop (fun () ->
      Obs.Span.with_ ~cat:"test" "hot-outer" (fun () ->
          Obs.Span.with_ ~cat:"test" "hot-inner" (fun () -> spin_for 0.15)));
  Obs.Profile.stop ();
  check_bool "samples taken" true (Obs.Profile.total_samples () > 0);
  check_bool "span ops counted" true (Obs.Profile.span_ops () >= 2);
  let folded = Obs.Profile.folded () in
  check_bool "hot stack present" true
    (let needle = "hot-outer;hot-inner" in
     let n = String.length needle and m = String.length folded in
     let rec scan i =
       i + n <= m && (String.sub folded i n = needle || scan (i + 1))
     in
     scan 0);
  List.iter
    (fun line ->
      if line <> "" then
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "folded line without count: %S" line
        | Some i -> (
            match int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
            | Some c when c > 0 -> ()
            | _ -> Alcotest.failf "bad folded count: %S" line))
    (String.split_on_char '\n' folded);
  (match Obs.Json.parse (Obs.Json.to_string (Obs.Profile.to_json ())) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "profile json does not parse: %s" m);
  let overhead =
    Obs.Profile.overhead_ns ~ops:(Obs.Profile.span_ops ())
      ~samples:(Obs.Profile.total_samples ())
  in
  check_bool "overhead finite and non-negative" true
    (Float.is_finite overhead && overhead >= 0.0);
  Obs.Profile.reset ();
  check_int "reset clears samples" 0 (Obs.Profile.total_samples ())

let test_profiler_disabled_costs_nothing () =
  check_bool "disabled" true (not (Obs.Profile.enabled ()));
  Obs.Span.with_ "unprofiled" (fun () -> ());
  check_int "no samples while disabled" 0 (Obs.Profile.total_samples ())

(* --- Histogram quantiles --- *)

let test_histogram_quantiles () =
  let h = Obs.Metrics.Histogram.v "test.quantiles" in
  for _ = 1 to 50 do
    Obs.Metrics.Histogram.observe h 1.0
  done;
  for _ = 1 to 50 do
    Obs.Metrics.Histogram.observe h 100.0
  done;
  match Obs.Metrics.find (Obs.Metrics.snapshot ()) "test.quantiles" with
  | Some (Obs.Metrics.Histogram _ as m) ->
      Alcotest.(check (float 1e-9))
        "p50" 1.0
        (Option.get (Obs.Metrics.quantile 0.5 m));
      Alcotest.(check (float 1e-9))
        "p99" 128.0
        (Option.get (Obs.Metrics.quantile 0.99 m));
      check_bool "non-histogram is None" true
        (Obs.Metrics.quantile 0.5 (Obs.Metrics.Counter 3) = None)
  | _ -> Alcotest.fail "histogram missing from snapshot"

(* --- Bench history --- *)

let entry ?(rev = "r0") ?(target = "fig2") metrics =
  { Obs.History.rev; target; time = 0.0; metrics }

let base_metrics =
  [ ("wall_clock_s", 1.0); ("builds", 100.0); ("bounds_pruned", 40.0) ]

let with_temp_history f =
  let path = Filename.temp_file "bench_history" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_history_roundtrip () =
  with_temp_history (fun path ->
      Obs.History.append path (entry base_metrics);
      Obs.History.append path (entry ~rev:"r1" base_metrics);
      match Obs.History.load path with
      | Error m -> Alcotest.failf "load failed: %s" m
      | Ok [ a; b ] ->
          Alcotest.(check string) "rev" "r0" a.Obs.History.rev;
          Alcotest.(check string) "rev" "r1" b.Obs.History.rev;
          Alcotest.(check (float 1e-9))
            "metric" 100.0
            (List.assoc "builds" a.Obs.History.metrics)
      | Ok es -> Alcotest.failf "expected 2 entries, got %d" (List.length es))

let test_history_malformed_rejected () =
  with_temp_history (fun path ->
      let oc = open_out path in
      output_string oc "{\"rev\":\"r0\"\n";
      close_out oc;
      match Obs.History.load path with
      | Error m -> check_bool "error names the line" true (String.length m > 0)
      | Ok _ -> Alcotest.fail "malformed history accepted")

let test_history_clean_run_passes () =
  let history = List.init 5 (fun _ -> entry base_metrics) in
  check_int "no regressions" 0
    (List.length (Obs.History.check ~history (entry base_metrics)))

let test_history_detects_regressions () =
  let history = List.init 5 (fun _ -> entry base_metrics) in
  let regressed =
    entry
      [ ("wall_clock_s", 2.0); ("builds", 120.0); ("bounds_pruned", 10.0) ]
  in
  let regs = Obs.History.check ~history regressed in
  let names = List.map (fun r -> r.Obs.History.metric) regs in
  check_bool "wall clock flagged" true (List.mem "wall_clock_s" names);
  check_bool "builds flagged" true (List.mem "builds" names);
  check_bool "pruned floor flagged" true (List.mem "bounds_pruned" names);
  (* Noise within threshold passes: +20% wall clock, +2% builds. *)
  let noisy =
    entry
      [ ("wall_clock_s", 1.2); ("builds", 102.0); ("bounds_pruned", 40.0) ]
  in
  check_int "noise tolerated" 0
    (List.length (Obs.History.check ~history noisy))

let test_history_baseline_is_median () =
  (* One bad historical sample must not poison the baseline. *)
  let history =
    List.map
      (fun w -> entry [ ("wall_clock_s", w) ])
      [ 1.0; 1.0; 50.0; 1.0; 1.0 ]
  in
  check_int "median absorbs the outlier" 0
    (List.length (Obs.History.check ~history (entry [ ("wall_clock_s", 1.1) ])));
  (* Different targets never share baselines. *)
  let other = entry ~target:"fig4" [ ("wall_clock_s", 100.0) ] in
  check_int "foreign target ignored" 0
    (List.length (Obs.History.check ~history:[ other ] (entry [ ("wall_clock_s", 1.0) ])))

(* --- Machine run feeds the registry --- *)

let test_machine_flushes_registry () =
  let before =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "sim.cycles"
  in
  let r = Apps.Registry.run Apps.Registry.arith in
  let after =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "sim.cycles"
  in
  check_int "cycle delta equals the run's profile"
    r.Sim.Machine.profile.Sim.Profiler.cycles (after - before)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "field order preserved" `Quick
            test_json_field_order_preserved;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "float precision" `Quick test_json_float_precision;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter across domains" `Quick
            test_counter_across_domains;
          Alcotest.test_case "gauge and histogram" `Quick
            test_gauge_and_histogram;
          Alcotest.test_case "type clash rejected" `Quick
            test_type_clash_rejected;
          Alcotest.test_case "metrics json parses" `Quick
            test_metrics_json_parses;
        ] );
      ( "trace",
        [
          Alcotest.test_case "golden chrome format" `Quick
            test_trace_golden_format;
          Alcotest.test_case "span nesting" `Quick test_trace_nesting;
          Alcotest.test_case "disabled records nothing" `Quick
            test_trace_disabled_records_nothing;
          Alcotest.test_case "spans across domains" `Quick
            test_trace_across_domains;
          Alcotest.test_case "events keep append order on equal timestamps"
            `Quick test_trace_equal_ts_append_order;
        ] );
      ( "journal",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_journal_disabled_records_nothing;
          Alcotest.test_case "records fields" `Quick test_journal_records_fields;
          Alcotest.test_case "mirrors into trace" `Quick
            test_journal_mirrors_into_trace;
          Alcotest.test_case "per-domain monotone under pool" `Quick
            test_journal_per_domain_monotone;
          Alcotest.test_case "clearing the journal keeps spans" `Quick
            test_journal_clear_keeps_spans;
          Alcotest.test_case "a journal without tracing records no span"
            `Quick test_journal_without_tracing;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "captures spans" `Quick
            test_sampling_profiler_captures_spans;
          Alcotest.test_case "disabled costs nothing" `Quick
            test_profiler_disabled_costs_nothing;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
        ] );
      ( "history",
        [
          Alcotest.test_case "roundtrip" `Quick test_history_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick
            test_history_malformed_rejected;
          Alcotest.test_case "clean run passes" `Quick
            test_history_clean_run_passes;
          Alcotest.test_case "detects regressions" `Quick
            test_history_detects_regressions;
          Alcotest.test_case "baseline is median" `Quick
            test_history_baseline_is_median;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "invariants on arith" `Quick
            test_profiler_invariants;
          Alcotest.test_case "invariants on more apps" `Slow
            test_profiler_invariants_all_apps;
          Alcotest.test_case "profile json" `Quick test_profiler_json;
          Alcotest.test_case "check catches violation" `Quick
            test_check_catches_violation;
          Alcotest.test_case "machine flushes registry" `Quick
            test_machine_flushes_registry;
        ] );
    ]

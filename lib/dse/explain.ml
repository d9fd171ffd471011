(* Decision-provenance reports: aggregate the journal instants of one
   pipeline run's {!Obs.Trace} stream into a structured explanation —
   solver incumbent timelines, per-candidate engine outcomes, and
   static-bound tightness — rendered as JSON or markdown.

   The report is deterministic for a deterministic run when rendered
   with [~timings:false]: candidates are sorted by (app, config), the
   incumbent timeline keeps journal order (monotone by construction,
   and equal timestamps keep their domain's append order), and all
   wall-clock fields are omitted — so a pinned run golden-tests
   byte-for-byte. *)

type incumbent = {
  ts_ns : int64;
  node : int;
  objective : float;
  bound : float option; (* previous best; [None] for the first *)
}

type solve = {
  nodes : int;
  pruned_bound : int;
  pruned_validity : int;
  incumbent_count : int;
  objective : float option;
  timeline : incumbent list; (* oldest first *)
}

type outcome = Hit | Build | Priced | Unfit | Dedup | Pruned | Infeasible

type candidate = {
  app : string;
  config : string;
  hits : int;
  builds : int;
  priced : int;
  unfit : int;
  dedup : int;
  pruned : int;
  infeasible : int;
}

type accounting = {
  a_hits : int;
  a_builds : int;
  a_priced : int;
  a_unfit : int;
  a_dedup : int;
  a_pruned : int;
  a_infeasible : int;
}

type tightness_stats = {
  t_count : int;
  t_min : float;
  t_mean : float;
  t_max : float;
}

type bounds_report = {
  computed : int; (* bounds.computed + bounds.verify events *)
  verified : int;
  violations : int;
  tightness : tightness_stats option;
}

type schedule_phase = {
  p_index : int;
  p_start : int;
  p_end : int;
  p_dominant : string;
}

type schedule_switch = {
  w_at : int;
  w_cycles : int;
  w_to : string;
}

type schedule_report = {
  s_phases : schedule_phase list;
  s_selects : (int * string) list;
  s_switches : schedule_switch list;
  s_static_seconds : float option;
  s_scheduled_seconds : float option;
  s_switch_cycles : int option;
  s_gain_pct : float option;
}

type t = {
  meta : (string * Obs.Json.t) list;
  solves : solve list;
  candidates : candidate list;
  account : accounting;
  bounds : bounds_report;
  schedule : schedule_report option;
}

let considered a =
  a.a_hits + a.a_builds + a.a_priced + a.a_unfit + a.a_dedup + a.a_pruned
  + a.a_infeasible

(* --- field access over journal events --- *)

let str k fields =
  match List.assoc_opt k fields with
  | Some (Obs.Json.String s) -> Some s
  | _ -> None

let num k fields = Option.bind (List.assoc_opt k fields) Obs.Json.to_float
let int_f k fields = Option.bind (List.assoc_opt k fields) Obs.Json.to_int

let of_events events =
  let meta = ref [] in
  let solves = ref [] in
  let open_timeline = ref [] in
  let table : (string * string, candidate) Hashtbl.t = Hashtbl.create 64 in
  let acc =
    ref
      {
        a_hits = 0;
        a_builds = 0;
        a_priced = 0;
        a_unfit = 0;
        a_dedup = 0;
        a_pruned = 0;
        a_infeasible = 0;
      }
  in
  let computed = ref 0 in
  let verified = ref 0 in
  let violations = ref 0 in
  let tightnesses = ref [] in
  let sched_phases = ref [] in
  let sched_selects = ref [] in
  let sched_switches = ref [] in
  let sched_verify = ref None in
  let candidate_event outcome fields =
    match (str "app" fields, str "config" fields) with
    | Some app, Some config ->
        let key = (app, config) in
        let c =
          match Hashtbl.find_opt table key with
          | Some c -> c
          | None ->
              {
                app;
                config;
                hits = 0;
                builds = 0;
                priced = 0;
                unfit = 0;
                dedup = 0;
                pruned = 0;
                infeasible = 0;
              }
        in
        let a = !acc in
        let c, a =
          match outcome with
          | Hit -> ({ c with hits = c.hits + 1 }, { a with a_hits = a.a_hits + 1 })
          | Build ->
              ({ c with builds = c.builds + 1 }, { a with a_builds = a.a_builds + 1 })
          | Priced ->
              ({ c with priced = c.priced + 1 }, { a with a_priced = a.a_priced + 1 })
          | Unfit ->
              ({ c with unfit = c.unfit + 1 }, { a with a_unfit = a.a_unfit + 1 })
          | Dedup ->
              ({ c with dedup = c.dedup + 1 }, { a with a_dedup = a.a_dedup + 1 })
          | Pruned ->
              ({ c with pruned = c.pruned + 1 }, { a with a_pruned = a.a_pruned + 1 })
          | Infeasible ->
              ( { c with infeasible = c.infeasible + 1 },
                { a with a_infeasible = a.a_infeasible + 1 } )
        in
        Hashtbl.replace table key c;
        acc := a
    | _ -> ()
  in
  let record_tightness fields =
    computed := !computed + 1;
    match num "tightness" fields with
    | Some r -> tightnesses := r :: !tightnesses
    | None -> ()
  in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let f = e.Obs.Trace.args in
      match e.Obs.Trace.name with
      | "run.meta" -> if !meta = [] then meta := f
      | "binlp.incumbent" ->
          let inc =
            {
              ts_ns = e.Obs.Trace.ts_ns;
              node = Option.value ~default:0 (int_f "node" f);
              objective = Option.value ~default:0.0 (num "objective" f);
              bound = num "bound" f;
            }
          in
          open_timeline := inc :: !open_timeline
      | "binlp.solve" ->
          let s =
            {
              nodes = Option.value ~default:0 (int_f "nodes" f);
              pruned_bound = Option.value ~default:0 (int_f "pruned_bound" f);
              pruned_validity =
                Option.value ~default:0 (int_f "pruned_validity" f);
              incumbent_count = Option.value ~default:0 (int_f "incumbents" f);
              objective = num "objective" f;
              timeline = List.rev !open_timeline;
            }
          in
          open_timeline := [];
          solves := s :: !solves
      | "engine.hit" -> candidate_event Hit f
      | "engine.build" -> candidate_event Build f
      | "engine.priced" -> candidate_event Priced f
      | "engine.unfit" -> candidate_event Unfit f
      | "engine.dedup" -> candidate_event Dedup f
      | "engine.pruned" -> candidate_event Pruned f
      | "engine.infeasible" -> candidate_event Infeasible f
      | "schedule.phase" ->
          sched_phases :=
            {
              p_index = Option.value ~default:0 (int_f "index" f);
              p_start = Option.value ~default:0 (int_f "start" f);
              p_end = Option.value ~default:0 (int_f "end" f);
              p_dominant = Option.value ~default:"" (str "dominant" f);
            }
            :: !sched_phases
      | "schedule.select" ->
          sched_selects :=
            ( Option.value ~default:0 (int_f "phase" f),
              Option.value ~default:"" (str "params" f) )
            :: !sched_selects
      | "schedule.switch" ->
          sched_switches :=
            {
              w_at = Option.value ~default:0 (int_f "at" f);
              w_cycles = Option.value ~default:0 (int_f "cycles" f);
              w_to = Option.value ~default:"" (str "to" f);
            }
            :: !sched_switches
      | "schedule.verify" ->
          sched_verify :=
            Some
              ( num "static_seconds" f,
                num "scheduled_seconds" f,
                int_f "switch_cycles" f,
                num "gain_pct" f )
      | "bounds.computed" -> record_tightness f
      | "bounds.verify" -> (
          record_tightness f;
          verified := !verified + 1;
          match (num "actual" f, num "lo" f, num "hi" f) with
          | Some actual, Some lo, Some hi when actual < lo || actual > hi ->
              violations := !violations + 1
          | _ -> ())
      | _ -> ())
    (List.filter
       (fun (e : Obs.Trace.event) -> e.Obs.Trace.cat = "journal")
       events);
  let candidates =
    Hashtbl.fold (fun _ c l -> c :: l) table []
    |> List.sort (fun a b -> compare (a.app, a.config) (b.app, b.config))
  in
  let tightness =
    match !tightnesses with
    | [] -> None
    | ts ->
        let n = List.length ts in
        Some
          {
            t_count = n;
            t_min = List.fold_left min infinity ts;
            t_mean = List.fold_left ( +. ) 0.0 ts /. float_of_int n;
            t_max = List.fold_left max neg_infinity ts;
          }
  in
  let schedule =
    if
      !sched_phases = [] && !sched_selects = [] && !sched_switches = []
      && !sched_verify = None
    then None
    else
      let vs, vd, vc, vg =
        match !sched_verify with
        | Some (s, d, c, g) -> (s, d, c, g)
        | None -> (None, None, None, None)
      in
      Some
        {
          s_phases = List.rev !sched_phases;
          s_selects = List.rev !sched_selects;
          s_switches = List.rev !sched_switches;
          s_static_seconds = vs;
          s_scheduled_seconds = vd;
          s_switch_cycles = vc;
          s_gain_pct = vg;
        }
  in
  {
    meta = !meta;
    solves = List.rev !solves;
    candidates;
    account = !acc;
    bounds =
      {
        computed = !computed;
        verified = !verified;
        violations = !violations;
        tightness;
      };
    schedule;
  }

let of_journal () = of_events (Obs.Journal.events ())

(* --- rendering --- *)

let opt_float = function
  | Some x -> Obs.Json.Float x
  | None -> Obs.Json.Null

let incumbent_json ~timings i =
  Obs.Json.Obj
    ((if timings then [ ("t_us", Obs.Json.Float (Obs.Clock.ns_to_us i.ts_ns)) ]
      else [])
    @ [
        ("node", Obs.Json.Int i.node);
        ("objective", Obs.Json.Float i.objective);
        ("bound", opt_float i.bound);
      ])

let solve_json ~timings s =
  Obs.Json.Obj
    [
      ("nodes", Obs.Json.Int s.nodes);
      ("pruned_bound", Obs.Json.Int s.pruned_bound);
      ("pruned_validity", Obs.Json.Int s.pruned_validity);
      ("incumbents", Obs.Json.Int s.incumbent_count);
      ("objective", opt_float s.objective);
      ("timeline", Obs.Json.List (List.map (incumbent_json ~timings) s.timeline));
    ]

let candidate_json c =
  Obs.Json.Obj
    [
      ("app", Obs.Json.String c.app);
      ("config", Obs.Json.String c.config);
      ("hits", Obs.Json.Int c.hits);
      ("builds", Obs.Json.Int c.builds);
      ("priced", Obs.Json.Int c.priced);
      ("unfit", Obs.Json.Int c.unfit);
      ("dedup", Obs.Json.Int c.dedup);
      ("pruned", Obs.Json.Int c.pruned);
      ("infeasible", Obs.Json.Int c.infeasible);
    ]

let opt_int = function Some x -> Obs.Json.Int x | None -> Obs.Json.Null

let schedule_json s =
  Obs.Json.Obj
    [
      ( "phases",
        Obs.Json.List
          (List.map
             (fun p ->
               Obs.Json.Obj
                 [
                   ("index", Obs.Json.Int p.p_index);
                   ("start", Obs.Json.Int p.p_start);
                   ("end", Obs.Json.Int p.p_end);
                   ("dominant", Obs.Json.String p.p_dominant);
                 ])
             s.s_phases) );
      ( "selects",
        Obs.Json.List
          (List.map
             (fun (phase, params) ->
               Obs.Json.Obj
                 [
                   ("phase", Obs.Json.Int phase);
                   ("params", Obs.Json.String params);
                 ])
             s.s_selects) );
      ( "switches",
        Obs.Json.List
          (List.map
             (fun w ->
               Obs.Json.Obj
                 [
                   ("at", Obs.Json.Int w.w_at);
                   ("cycles", Obs.Json.Int w.w_cycles);
                   ("to", Obs.Json.String w.w_to);
                 ])
             s.s_switches) );
      ("static_seconds", opt_float s.s_static_seconds);
      ("scheduled_seconds", opt_float s.s_scheduled_seconds);
      ("switch_cycles", opt_int s.s_switch_cycles);
      ("gain_pct", opt_float s.s_gain_pct);
    ]

let to_json ?(timings = true) t =
  let a = t.account in
  Obs.Json.Obj
    ([
       ("meta", Obs.Json.Obj t.meta);
      ("solves", Obs.Json.List (List.map (solve_json ~timings) t.solves));
      ("candidates", Obs.Json.List (List.map candidate_json t.candidates));
      ( "accounting",
        Obs.Json.Obj
          [
            ("considered", Obs.Json.Int (considered a));
            ("hits", Obs.Json.Int a.a_hits);
            ("builds", Obs.Json.Int a.a_builds);
            ("priced", Obs.Json.Int a.a_priced);
            ("unfit", Obs.Json.Int a.a_unfit);
            ("dedup", Obs.Json.Int a.a_dedup);
            ("pruned", Obs.Json.Int a.a_pruned);
            ("infeasible", Obs.Json.Int a.a_infeasible);
          ] );
      ( "bounds",
        Obs.Json.Obj
          ([
             ("computed", Obs.Json.Int t.bounds.computed);
             ("verified", Obs.Json.Int t.bounds.verified);
             ("violations", Obs.Json.Int t.bounds.violations);
           ]
          @
          match t.bounds.tightness with
          | None -> []
          | Some s ->
              [
                ( "tightness",
                  Obs.Json.Obj
                    [
                      ("count", Obs.Json.Int s.t_count);
                      ("min", Obs.Json.Float s.t_min);
                      ("mean", Obs.Json.Float s.t_mean);
                      ("max", Obs.Json.Float s.t_max);
                    ] );
              ]) );
    ]
    @
    match t.schedule with
    | None -> []
    | Some s -> [ ("schedule", schedule_json s) ])

let buf_addf b fmt = Printf.ksprintf (Buffer.add_string b) fmt

let to_markdown ?(timings = true) t =
  let b = Buffer.create 4096 in
  buf_addf b "# Decision provenance\n";
  if t.meta <> [] then begin
    buf_addf b "\n## Run\n\n";
    List.iter
      (fun (k, v) -> buf_addf b "- %s: %s\n" k (Obs.Json.to_string v))
      t.meta
  end;
  List.iteri
    (fun i s ->
      buf_addf b "\n## Solve %d\n\n" (i + 1);
      buf_addf b
        "nodes: %d, pruned (bound): %d, pruned (validity): %d, incumbents: %d"
        s.nodes s.pruned_bound s.pruned_validity s.incumbent_count;
      (match s.objective with
      | Some o -> buf_addf b ", objective: %g\n" o
      | None -> buf_addf b ", no feasible solution\n");
      if s.timeline <> [] then begin
        if timings then begin
          buf_addf b "\n| node | objective | prev best | t (us) |\n";
          buf_addf b "|---:|---:|---:|---:|\n";
          List.iter
            (fun i ->
              buf_addf b "| %d | %g | %s | %.1f |\n" i.node i.objective
                (match i.bound with Some x -> Printf.sprintf "%g" x | None -> "-")
                (Obs.Clock.ns_to_us i.ts_ns))
            s.timeline
        end
        else begin
          buf_addf b "\n| node | objective | prev best |\n";
          buf_addf b "|---:|---:|---:|\n";
          List.iter
            (fun i ->
              buf_addf b "| %d | %g | %s |\n" i.node i.objective
                (match i.bound with Some x -> Printf.sprintf "%g" x | None -> "-"))
            s.timeline
        end
      end)
    t.solves;
  let a = t.account in
  buf_addf b "\n## Candidates\n\n";
  buf_addf b
    "considered: %d (hits %d, builds %d, priced %d, unfit %d, dedup %d, \
     pruned %d, infeasible %d)\n"
    (considered a) a.a_hits a.a_builds a.a_priced a.a_unfit a.a_dedup
    a.a_pruned a.a_infeasible;
  if t.candidates <> [] then begin
    buf_addf b
      "\n| app | config | hits | builds | priced | unfit | dedup | pruned | \
       infeasible |\n";
    buf_addf b "|---|---|---:|---:|---:|---:|---:|---:|---:|\n";
    List.iter
      (fun c ->
        buf_addf b "| %s | `%s` | %d | %d | %d | %d | %d | %d | %d |\n" c.app
          c.config c.hits c.builds c.priced c.unfit c.dedup c.pruned
          c.infeasible)
      t.candidates
  end;
  buf_addf b "\n## Static bounds\n\n";
  buf_addf b "computed: %d, verified: %d, violations: %d\n" t.bounds.computed
    t.bounds.verified t.bounds.violations;
  (match t.bounds.tightness with
  | None -> ()
  | Some s ->
      buf_addf b "tightness (lo/hi): min %.4f, mean %.4f, max %.4f over %d\n"
        s.t_min s.t_mean s.t_max s.t_count);
  (match t.schedule with
  | None -> ()
  | Some s ->
      buf_addf b "\n## Schedule\n";
      if s.s_phases <> [] then begin
        buf_addf b "\n| phase | insns | dominant | selected |\n";
        buf_addf b "|---:|---|---|---|\n";
        List.iter
          (fun p ->
            buf_addf b "| %d | [%d, %d) | %s | `%s` |\n" p.p_index p.p_start
              p.p_end p.p_dominant
              (match List.assoc_opt p.p_index s.s_selects with
              | Some params -> params
              | None -> "-"))
          s.s_phases
      end;
      if s.s_switches <> [] then begin
        buf_addf b "\n| switch at insn | cycles | to |\n";
        buf_addf b "|---:|---:|---|\n";
        List.iter
          (fun w -> buf_addf b "| %d | %d | `%s` |\n" w.w_at w.w_cycles w.w_to)
          s.s_switches
      end;
      match (s.s_static_seconds, s.s_scheduled_seconds) with
      | Some st, Some sc ->
          buf_addf b
            "\nstatic %.6f s vs scheduled %.6f s (switches: %s cycles), gain \
             %s%%\n"
            st sc
            (match s.s_switch_cycles with
            | Some c -> string_of_int c
            | None -> "-")
            (match s.s_gain_pct with
            | Some g -> Printf.sprintf "%.3f" g
            | None -> "-")
      | _ -> ());
  Buffer.contents b

let write_json ?timings oc t =
  output_string oc (Obs.Json.to_string (to_json ?timings t) ^ "\n")

let write_markdown ?timings oc t = output_string oc (to_markdown ?timings t)

let m_builds =
  Obs.Metrics.Counter.v "dse.builds"
    ~help:"configurations synthesized and executed"

let m_priced =
  Obs.Metrics.Counter.v "dse.engine.priced"
    ~help:"evaluations priced from a simulated representative's event counts"

let m_hits =
  Obs.Metrics.Counter.v "dse.engine.hits"
    ~help:"evaluations served from the engine's memo cache"

let m_misses =
  Obs.Metrics.Counter.v "dse.engine.misses"
    ~help:"evaluations computed by the engine (cache misses)"

let m_dedup =
  Obs.Metrics.Counter.v "dse.engine.inflight_dedup"
    ~help:"evaluations collapsed onto an identical in-flight or batched request"

let h_build_seconds =
  Obs.Metrics.Histogram.v "dse.engine.build_seconds"
    ~help:"wall-clock duration of engine build+simulate computations"

(* Content-addressed cache key: the codec's canonical encoding always
   emits every field, so structurally equal configurations digest
   identically.  The target name is part of the key — two targets may
   share an encoding (or even a digest) without their measurements ever
   colliding.  Distinct noise amplitudes are distinct keys — their
   measurements differ, and ablation studies must not observe each
   other's perturbed results. *)
type key = {
  target : string;
  app : string;
  digest : string;
  noise : float option;
  phase : string option;
      (* segmentation digest for per-phase measurements: a segmented
         evaluation of the same configuration is a distinct result
         (it carries per-phase profiles), so it occupies a distinct
         key; [None] for whole-run evaluations, which a segmented
         evaluation also fills (see [obtain]) *)
}

let key_of ?noise (probe : _ Target.probe) (app : Apps.Registry.t) config =
  {
    target = probe.Target.target;
    app = app.Apps.Registry.name;
    digest = probe.Target.digest config;
    noise;
    phase = None;
  }

type value = {
  cost : Cost.t;
  profile : Sim.Profiler.t;
  fits : bool;
  segments : Sim.Profiler.t list;
      (* per-phase profile deltas for segmented evaluations; [] for
         whole-run ones *)
}

(* [Unfit] holds the (noised) resource estimate of a configuration that
   exceeds the device: a feasibility query needs no simulation, but a
   later forced {!eval} upgrades the entry to [Full] by simulating with
   the saved resources. *)
type entry = Pending | Unfit of Synth.Resource.t | Full of value

(* One representative's simulation, under the representative's
   whole-run key without noise (noise never changes a run).  [claimed]
   is set by the first whole-run miss priced from it, which counts as
   the build; a run the window walk needed before any miss claimed it
   is unclaimed until then. *)
type shape =
  | Running
  | Ran of { profile : Sim.Profiler.t; mutable claimed : bool }

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
      (* signaled whenever an entry leaves [Pending] or a shape leaves
         [Running] *)
  table : (key, entry) Hashtbl.t;
  shapes : (key, shape) Hashtbl.t;
  pool : Pool.t option;
      (* [None] = the shared pool, resolved lazily at first batch and
         only on machines with real parallelism: on a single-core host
         a second domain is pure overhead (stop-the-world coordination
         against the mutator), so batches run inline there. *)
}

let create ?pool () =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    table = Hashtbl.create 256;
    shapes = Hashtbl.create 256;
    pool;
  }

let clear t =
  Mutex.lock t.mutex;
  Hashtbl.reset t.table;
  Hashtbl.reset t.shapes;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

(* Deterministic synthesis "measurement noise": a hash of the
   configuration drives a uniform error in [-1, 1] x amplitude, where
   [amplitude] is a fraction of the target device's LUTs (0.005 =
   ±0.5 %) — the same unit [noise] is documented in throughout the
   interface.  The error is therefore at most
   [amplitude * device_luts] LUTs.  [Hashtbl.hash] is polymorphic, so
   the same formula serves every target's configuration type. *)
let lut_noise ~amplitude ~device_luts config =
  let h = Hashtbl.hash config in
  let u = float_of_int (h land 0xFFFF) /. 65535.0 in
  amplitude *. ((2.0 *. u) -. 1.0) *. float_of_int device_luts

(* Elaborate resources once: feasibility is judged on the un-noised
   estimate against the probe's device, the returned cost carries the
   noised one. *)
let noised_resources ?noise (probe : _ Target.probe) config =
  let resources = probe.Target.resources config in
  let fits =
    resources.Synth.Resource.luts <= probe.Target.device_luts
    && resources.Synth.Resource.brams <= probe.Target.device_brams
  in
  let resources =
    match noise with
    | None -> resources
    | Some amplitude ->
        {
          resources with
          Synth.Resource.luts =
            resources.Synth.Resource.luts
            + int_of_float
                (lut_noise ~amplitude ~device_luts:probe.Target.device_luts
                   config);
        }
  in
  (resources, fits)

(* Every simulation the engine runs, timed into the build histogram. *)
let timed f app config =
  let t0 = Obs.Clock.since_start_ns () in
  let r = f app config in
  let dt = Int64.sub (Obs.Clock.since_start_ns ()) t0 in
  Obs.Metrics.Histogram.observe h_build_seconds (Int64.to_float dt *. 1e-9);
  r

(* The profile of [rep]'s simulation, run at most once per engine under
   the same discipline as [obtain]'s [Pending]: [Running] is installed
   only by the thread about to simulate, and a simulation never waits,
   so waiters always wait on a running computation.  [~claim] reports
   whether this call is the first miss priced from the run. *)
let shape_run t (probe : _ Target.probe) app rep ~claim =
  let key = key_of probe app rep in
  Mutex.lock t.mutex;
  let rec loop () =
    match Hashtbl.find_opt t.shapes key with
    | Some (Ran r) ->
        let first = claim && not r.claimed in
        if first then r.claimed <- true;
        Mutex.unlock t.mutex;
        (r.profile, first)
    | Some Running ->
        Condition.wait t.cond t.mutex;
        loop ()
    | None -> (
        Hashtbl.replace t.shapes key Running;
        Mutex.unlock t.mutex;
        match timed probe.Target.simulate app rep with
        | _, profile ->
            Mutex.lock t.mutex;
            Hashtbl.replace t.shapes key (Ran { profile; claimed = claim });
            Condition.broadcast t.cond;
            Mutex.unlock t.mutex;
            (profile, claim)
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock t.mutex;
            Hashtbl.remove t.shapes key;
            Condition.broadcast t.cond;
            Mutex.unlock t.mutex;
            Printexc.raise_with_backtrace e bt)
  in
  loop ()

(* A whole-run evaluation: price [config] from its representative's
   run.  The miss that first claims the run is the build; every other
   is priced.  Returns the journal kind with the result. *)
let price t (probe : _ Target.probe) app config =
  let run c = fst (shape_run t probe app c ~claim:false) in
  let rep = probe.Target.representative ~run config in
  let profile, built = shape_run t probe app rep ~claim:true in
  Obs.Metrics.Counter.incr (if built then m_builds else m_priced);
  ( probe.Target.price config profile,
    if built then "engine.build" else "engine.priced" )

(* Journal identification of one candidate: the application plus the
   codec's canonical encoding (stable across runs, unlike digests,
   and what a reader of an explain report wants to see). *)
let journal_fields (probe : _ Target.probe) (app : Apps.Registry.t) config =
  [
    ("app", Obs.Json.String app.Apps.Registry.name);
    ("config", Obs.Json.String (probe.Target.describe config));
  ]

(* The per-key state machine.  [Pending] is only ever installed by a
   thread about to compute in place, so a waiter always waits on an
   actively running computation — never on a queued task — which keeps
   pool workers deadlock-free when they block here.  A failed compute
   removes its entry and wakes waiters before re-raising, so nobody
   waits on a corpse. *)
let obtain t ~feasible_only ?segmented ?noise probe app config =
  let key =
    {
      (key_of ?noise probe app config) with
      phase = Option.map fst segmented;
    }
  in
  let counted = ref false in
  let journal kind extra =
    if Obs.Journal.enabled () then
      Obs.Journal.record ~kind (journal_fields probe app config @ extra)
  in
  let hit r =
    if not !counted then begin
      Obs.Metrics.Counter.incr m_hits;
      journal "engine.hit" []
    end;
    r
  in
  let compute prior =
    Obs.Metrics.Counter.incr m_misses;
    match
      Obs.Span.with_ ~cat:"dse" "engine.build"
        ~attrs:[ ("app", Obs.Json.String key.app) ]
      @@ fun () ->
      let resources, fits =
        match prior with
        | Some r -> (r, false) (* a cached [Unfit]: skip re-elaboration *)
        | None -> noised_resources ?noise probe config
      in
      if feasible_only && not fits then (Unfit resources, "engine.unfit")
      else begin
        match segmented with
        | None ->
            let (seconds, profile), kind = price t probe app config in
            ( Full { cost = { Cost.seconds; resources }; profile; fits;
                     segments = [] },
              kind )
        | Some (_, f) ->
            Obs.Metrics.Counter.incr m_builds;
            let seconds, profile, segments = timed f app config in
            ( Full { cost = { Cost.seconds; resources }; profile; fits;
                     segments },
              "engine.build" )
      end
    with
    | entry, kind ->
        Mutex.lock t.mutex;
        Hashtbl.replace t.table key entry;
        (* A segmented run's whole-run part is the plain run's result
           bit for bit, so it also fills the configuration's whole-run
           key — unless that key is already built or being built. *)
        (match entry with
        | Full v when key.phase <> None -> (
            let whole = { key with phase = None } in
            match Hashtbl.find_opt t.table whole with
            | Some (Full _ | Pending) -> ()
            | None | Some (Unfit _) ->
                Hashtbl.replace t.table whole (Full { v with segments = [] }))
        | Full _ | Unfit _ | Pending -> ());
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex;
        journal kind
          (match entry with
          | Full v -> [ ("fits", Obs.Json.Bool v.fits) ]
          | Unfit _ | Pending -> []);
        entry
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock t.mutex;
        Hashtbl.remove t.table key;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex;
        Printexc.raise_with_backtrace e bt
  in
  Mutex.lock t.mutex;
  let rec loop () =
    match Hashtbl.find_opt t.table key with
    | Some (Full _ as e) ->
        Mutex.unlock t.mutex;
        hit e
    | Some (Unfit _ as e) when feasible_only ->
        Mutex.unlock t.mutex;
        hit e
    | Some (Unfit r) ->
        (* A forced build of a known-unfit configuration. *)
        Hashtbl.replace t.table key Pending;
        Mutex.unlock t.mutex;
        compute (Some r)
    | Some Pending ->
        if not !counted then begin
          counted := true;
          Obs.Metrics.Counter.incr m_dedup;
          journal "engine.dedup" []
        end;
        Condition.wait t.cond t.mutex;
        loop ()
    | None ->
        Hashtbl.replace t.table key Pending;
        Mutex.unlock t.mutex;
        compute None
  in
  loop ()

(* [_uncounted] variants run the request without pool task accounting:
   they are what {!batch} submits to the pool (whose [Pool.map] /
   [Pool.run_inline] already count each unique request), while the
   public single-evaluation entry points below wrap them in
   {!Pool.run_inline} so sequential searches — coordinate descent,
   the paper method, random search — show up in [dse.pool.tasks] too
   instead of leaving it at 0. *)
let eval_on_uncounted ?noise t probe app config =
  match obtain t ~feasible_only:false ?noise probe app config with
  | Full v -> v.cost
  | Unfit _ | Pending -> assert false

let eval_on ?noise t probe app config =
  Pool.run_inline (fun () -> eval_on_uncounted ?noise t probe app config)

let eval_profiled_on ?noise t probe app config =
  Pool.run_inline (fun () ->
      match obtain t ~feasible_only:false ?noise probe app config with
      | Full v -> (v.cost, v.profile)
      | Unfit _ | Pending -> assert false)

let eval_segments_on_uncounted ?noise t probe ~phase ~segmented app config =
  match
    obtain t ~feasible_only:false ~segmented:(phase, segmented) ?noise probe
      app config
  with
  | Full v -> (v.cost, v.segments)
  | Unfit _ | Pending -> assert false

let eval_segments_on ?noise t probe ~phase ~segmented app config =
  Pool.run_inline (fun () ->
      eval_segments_on_uncounted ?noise t probe ~phase ~segmented app config)

let journal_infeasible probe app config reason =
  if Obs.Journal.enabled () then
    Obs.Journal.record ~kind:"engine.infeasible"
      (journal_fields probe app config
      @ [ ("reason", Obs.Json.String reason) ])

let eval_feasible_on_uncounted ?noise t (probe : _ Target.probe) app config =
  if not (probe.Target.is_valid config) then begin
    journal_infeasible probe app config "invalid";
    None
  end
  else
    match obtain t ~feasible_only:true ?noise probe app config with
    | Full v -> if v.fits then Some v.cost else None
    | Unfit _ -> None
    | Pending -> assert false

let eval_feasible_on ?noise t probe app config =
  Pool.run_inline (fun () ->
      eval_feasible_on_uncounted ?noise t probe app config)

type admission =
  | Infeasible
  | Pruned of float * float
  | Evaluated of Cost.t

(* Bounds admission: before paying for a simulation, compare the
   configuration's static lower runtime bound against the caller's
   cutoff — the runtime above which the candidate provably cannot
   matter (e.g. cannot beat a search's incumbent).  The cutoff is a
   function of the candidate's resources so callers can fold resource
   terms of their objective into it; it receives exactly the resource
   estimate a full evaluation would report.  Pruned configurations are
   never simulated and never cached (a later unbounded evaluation
   computes them normally). *)
let eval_bounded_on ?noise ~cutoff t (probe : _ Target.probe) app config =
  let admit () =
    match eval_feasible_on ?noise t probe app config with
    | None -> Infeasible
    | Some cost -> Evaluated cost
  in
  if not (probe.Target.is_valid config) then begin
    journal_infeasible probe app config "invalid";
    Infeasible
  end
  else
    match probe.Target.static_bounds with
    | None -> admit ()
    | Some bounds_of ->
        let resources, fits = noised_resources ?noise probe config in
        if not fits then begin
          journal_infeasible probe app config "unfit";
          Infeasible
        end
        else
          let limit = cutoff resources in
          if limit = infinity then admit ()
          else begin
            let lo, hi = bounds_of app config in
            Obs.Metrics.Counter.incr Bounds.m_computed;
            if Obs.Journal.enabled () then
              Obs.Journal.record ~kind:"bounds.computed"
                (journal_fields probe app config
                @ [
                    ("lo", Obs.Json.Float lo);
                    ("hi", Obs.Json.Float hi);
                    ( "tightness",
                      match Bounds.tightness ~lo ~hi with
                      | Some r -> Obs.Json.Float r
                      | None -> Obs.Json.Null );
                  ]);
            if lo > limit then begin
              Obs.Metrics.Counter.incr Bounds.m_pruned;
              if Obs.Journal.enabled () then
                Obs.Journal.record ~kind:"engine.pruned"
                  (journal_fields probe app config
                  @ [
                      ("lo", Obs.Json.Float lo);
                      ("hi", Obs.Json.Float hi);
                      ("cutoff", Obs.Json.Float limit);
                    ]);
              Pruned (lo, hi)
            end
            else admit ()
          end

(* The pool-selection rule of every fan-out over this engine: the
   explicit pool, else the shared one on multi-core hosts, else the
   caller — still through the pool's task accounting, so
   [dse.pool.tasks] reflects the work actually done. *)
let map t f xs =
  match t.pool with
  | Some pool -> Pool.map pool f xs
  | None when Domain.recommended_domain_count () > 1 ->
      Pool.map (Pool.default ()) f xs
  | None -> List.map (fun x -> Pool.run_inline (fun () -> f x)) xs

(* Collapse a keyed batch to its distinct requests (first occurrence
   order), counting (and journalling) the collapsed repeats, evaluate
   the distinct ones on the pool, and fan the results back out in
   input order. *)
let batch ~span_name ~journal_dedup t keyed evaluate =
  let seen = Hashtbl.create 64 in
  let uniques =
    List.filter
      (fun (k, req) ->
        if Hashtbl.mem seen k then begin
          Obs.Metrics.Counter.incr m_dedup;
          journal_dedup req;
          false
        end
        else begin
          Hashtbl.add seen k ();
          true
        end)
      keyed
  in
  Obs.Span.with_ ~cat:"dse" span_name
    ~attrs:
      [
        ("items", Obs.Json.Int (List.length keyed));
        ("unique", Obs.Json.Int (List.length uniques));
      ]
  @@ fun () ->
  let results = map t (fun (_, req) -> evaluate req) uniques in
  let by_key = Hashtbl.create 64 in
  List.iter2 (fun (k, _) r -> Hashtbl.replace by_key k r) uniques results;
  List.map (fun (k, _) -> Hashtbl.find by_key k) keyed

let eval_all_feasible_on ?noise t probe app configs =
  match configs with
  | [] -> []
  | [ config ] -> [ eval_feasible_on ?noise t probe app config ]
  | _ ->
      ignore (Lazy.force app.Apps.Registry.program);
      let keyed =
        List.map (fun config -> (key_of ?noise probe app config, config)) configs
      in
      batch ~span_name:"engine.eval_all" t keyed
        ~journal_dedup:(fun config ->
          if Obs.Journal.enabled () then
            Obs.Journal.record ~kind:"engine.dedup"
              (journal_fields probe app config))
        (fun config -> eval_feasible_on_uncounted ?noise t probe app config)

let eval_all_segments_on ?noise t probe ~phase ~segmented app configs =
  match configs with
  | [] -> []
  | [ config ] ->
      [ eval_segments_on ?noise t probe ~phase ~segmented app config ]
  | _ ->
      ignore (Lazy.force app.Apps.Registry.program);
      let keyed =
        List.map
          (fun config ->
            ( { (key_of ?noise probe app config) with phase = Some phase },
              config ))
          configs
      in
      batch ~span_name:"engine.eval_all" t keyed
        ~journal_dedup:(fun config ->
          if Obs.Journal.enabled () then
            Obs.Journal.record ~kind:"engine.dedup"
              (journal_fields probe app config))
        (fun config ->
          eval_segments_on_uncounted ?noise t probe ~phase ~segmented app
            config)

let default_mutex = Mutex.create ()
let default_engine = ref None

let default () =
  Mutex.lock default_mutex;
  let e =
    match !default_engine with
    | Some e -> e
    | None ->
        let e = create () in
        default_engine := Some e;
        e
  in
  Mutex.unlock default_mutex;
  e

let m_builds =
  Obs.Metrics.Counter.v "dse.builds"
    ~help:"configurations synthesized and executed"

let m_priced =
  Obs.Metrics.Counter.v "dse.engine.priced"
    ~help:"evaluations priced from an already claimed recording"

let m_hits =
  Obs.Metrics.Counter.v "dse.engine.hits"
    ~help:"evaluations served from the engine's memo cache"

let m_misses =
  Obs.Metrics.Counter.v "dse.engine.misses"
    ~help:"evaluations computed by the engine (cache misses)"

let m_dedup =
  Obs.Metrics.Counter.v "dse.engine.inflight_dedup"
    ~help:"evaluations collapsed onto an identical in-flight or batched request"

let m_evictions =
  Obs.Metrics.Counter.v "dse.engine.evictions"
    ~help:"applications whose memo entries were dropped to stay within the budget"

let g_retained =
  Obs.Metrics.Gauge.v "dse.engine.retained_bytes"
    ~help:"bytes the engine's memo entries retain"

let h_build_seconds =
  Obs.Metrics.Histogram.v "dse.engine.build_seconds"
    ~help:"wall-clock duration of engine build+simulate computations"

(* The memo's byte budget: the least recently used applications' entries
   are dropped past it.  A weight sweep over the paper's four
   applications on both targets keeps about a quarter of it; a stream
   of fresh applications, none reading another's entries, keeps only
   the latest few. *)
let budget_bytes = 1 lsl 18

(* Content-addressed cache key: the codec's canonical encoding always
   emits every field, so structurally equal configurations digest
   identically.  The target name is part of the key — two targets may
   share an encoding (or even a digest) without their measurements ever
   colliding.  Distinct noise amplitudes are distinct keys — their
   measurements differ, and ablation studies must not observe each
   other's perturbed results.  Every field but the digest is shared by
   all of one application's keys: the [scope].  Only whole runs are
   memoized: per-segment answers ({!segments_on}) are priced from the
   class recording and its replays on every request. *)
type scope = { target : string; app : string; noise : float option }
type key = { scope : scope; digest : string }

let key_of ?noise (probe : _ Target.probe) (app : Apps.Registry.t) config =
  {
    scope =
      { target = probe.Target.target; app = app.Apps.Registry.name; noise };
    digest = probe.Target.digest config;
  }

let pack (cost : Cost.t) profile =
  let b = Buffer.create 96 in
  Buffer.add_int64_le b (Int64.bits_of_float cost.Cost.seconds);
  Buffer.add_int32_le b (Int32.of_int cost.Cost.resources.Synth.Resource.luts);
  Buffer.add_int32_le b (Int32.of_int cost.Cost.resources.Synth.Resource.brams);
  Sim.Profiler.pack b profile;
  Buffer.contents b

let cost_of packed =
  {
    Cost.seconds = Int64.float_of_bits (String.get_int64_le packed 0);
    resources =
      {
        Synth.Resource.luts = Int32.to_int (String.get_int32_le packed 8);
        brams = Int32.to_int (String.get_int32_le packed 12);
      };
  }

let profile_of packed = Sim.Profiler.unpack packed ~pos:16

(* [Unfit] holds the (noised) resource estimate of a configuration that
   exceeds the device: a feasibility query needs no simulation, but a
   later forced {!eval} upgrades the entry to [Full] by simulating with
   the saved resources.  A [Full] evaluation is held packed ({!pack}):
   its seconds, resources and profile counters in one string of about
   ten words where the records take about thirty.  Every entry names
   the batch that created it (see [current_batch]). *)
type entry =
  | Pending of int
  | Unfit of { resources : Synth.Resource.t; batch : int }
  | Full of { packed : string; fits : bool; batch : int }

(* Bytes an entry retains: its strings plus a fixed share for the
   table's cell and bucket slots, the entry block and the string
   headers. *)
let entry_bytes digest = function
  | Pending _ -> 0
  | Unfit _ -> 104 + String.length digest
  | Full v -> 104 + String.length digest + String.length v.packed

(* One application's memo entries, on both targets, under every noise:
   the unit of retention.  [stamp] is the engine's clock at its last
   use; [pending] counts its computations in flight. *)
type group = {
  name : string;
  mutable stamp : int;
  mutable bytes : int;
  mutable pending : int;
  mutable scopes : scope list;
}

type memo = { digests : (string, entry) Hashtbl.t; group : group }

(* One computation run at most once per engine: [Busy] is installed
   only by the thread about to compute, and a computation never waits,
   so waiters always wait on a running one.  Waiters hold the cell, so
   a cell dropped from its table still reaches them; a failed
   computation leaves [Failed] and its waiters look again. *)
type 'a cell = { mutable state : 'a state }
and 'a state = Busy | Done of 'a | Failed

(* One execution class's recording, under the class's whole-run key
   without noise (noise never changes a run).  [claimed] is set by the
   first miss priced from it, which counts as the build; a recording
   made for phase detection or the window walk is unclaimed until
   then.  [replays] holds its cache replays, one per side and
   geometry, the recorded caches' own from the start. *)
type recorded = {
  recording : Sim.Recording.t;
  mutable claimed : bool;
  replays : (Sim.Cache.side * Arch.Config.cache, Sim.Recording.replay cell) Hashtbl.t;
}

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
      (* signaled whenever an entry leaves [Pending] or a cell leaves
         [Busy] *)
  table : (scope, memo) Hashtbl.t;  (* the memo: per scope, per digest *)
  groups : (string, group) Hashtbl.t;  (* per application *)
  mutable clock : int;
  mutable retained : int;  (* bytes of every group *)
  recordings : (key, recorded cell) Hashtbl.t;
      (* only the most recently evaluated application's, and any still
         being made *)
  pool : Pool.t option;
      (* [None] = the shared pool, resolved lazily at first batch and
         only on machines with real parallelism: on a single-core host
         a second domain is pure overhead (stop-the-world coordination
         against the mutator), so batches run inline there. *)
}

(* {1 Batches}

   A lookup is classified from the request sequence alone: every fan-out
   through {!map} is a batch with its own number, its tasks run under
   it, and a lookup that finds an entry its own batch created counts as
   an in-flight dedup whether or not the computation has finished —
   otherwise as a hit.  Outside any batch the number is 0, which no
   entry's batch matches. *)

let batches = Atomic.make 0
let current_batch = Domain.DLS.new_key (fun () -> ref 0)

let in_batch id f =
  let cell = Domain.DLS.get current_batch in
  let saved = !cell in
  cell := id;
  Fun.protect ~finally:(fun () -> cell := saved) f

(* {1 The memo and its retention} *)

(* The application is in use: O(1), allocation-free on a hit. *)
let touch t g =
  if g.stamp <> t.clock then begin
    t.clock <- t.clock + 1;
    g.stamp <- t.clock
  end

let group t name =
  match Hashtbl.find_opt t.groups name with
  | Some g -> g
  | None ->
      let g = { name; stamp = -1; bytes = 0; pending = 0; scopes = [] } in
      Hashtbl.replace t.groups name g;
      g

let memo t scope =
  match Hashtbl.find_opt t.table scope with
  | Some m -> m
  | None ->
      let g = group t scope.app in
      let m = { digests = Hashtbl.create 16; group = g } in
      Hashtbl.replace t.table scope m;
      g.scopes <- scope :: g.scopes;
      m

let evict t g =
  List.iter (Hashtbl.remove t.table) g.scopes;
  Hashtbl.remove t.groups g.name;
  t.retained <- t.retained - g.bytes;
  Obs.Metrics.Counter.incr m_evictions

(* Drop the least recently used applications, never [keep] nor one
   with a computation in flight, until the memo fits its budget.  The
   groups' clock order and bytes follow the requests, so which ones go
   does too. *)
let rec trim t ~keep =
  if t.retained > budget_bytes then begin
    let victim =
      Hashtbl.fold
        (fun _ g best ->
          if g == keep || g.pending > 0 then best
          else
            match best with
            | Some b when b.stamp <= g.stamp -> best
            | _ -> Some g)
        t.groups None
    in
    match victim with
    | Some g ->
        evict t g;
        trim t ~keep
    | None -> ()
  end

let set t k entry =
  let m = memo t k.scope in
  let g = m.group in
  let before =
    match Hashtbl.find_opt m.digests k.digest with
    | Some e -> entry_bytes k.digest e
    | None -> 0
  in
  let delta = entry_bytes k.digest entry - before in
  g.bytes <- g.bytes + delta;
  t.retained <- t.retained + delta;
  Hashtbl.replace m.digests k.digest entry;
  touch t g;
  if delta > 0 then trim t ~keep:g;
  Obs.Metrics.Gauge.set g_retained (float_of_int t.retained)

(* A computation claims [k] ([Pending]), then settles it with its entry
   or, failing, removes it. *)
let claim t k ~batch =
  set t k (Pending batch);
  let g = (memo t k.scope).group in
  g.pending <- g.pending + 1

let settle t k entry =
  let g = (memo t k.scope).group in
  g.pending <- g.pending - 1;
  set t k entry

let remove t k =
  Option.iter
    (fun m ->
      m.group.pending <- m.group.pending - 1;
      Hashtbl.remove m.digests k.digest)
    (Hashtbl.find_opt t.table k.scope)

let create ?pool () =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    table = Hashtbl.create 16;
    groups = Hashtbl.create 16;
    clock = 0;
    retained = 0;
    recordings = Hashtbl.create 16;
    pool;
  }

let clear t =
  Mutex.lock t.mutex;
  Hashtbl.reset t.table;
  Hashtbl.reset t.groups;
  t.retained <- 0;
  Hashtbl.reset t.recordings;
  Obs.Metrics.Gauge.set g_retained 0.0;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

let retained_bytes t =
  Mutex.lock t.mutex;
  let n = t.retained in
  Mutex.unlock t.mutex;
  n

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
let timed f =
  let t0 = Obs.Clock.since_start_ns () in
  let r = f () in
  let dt = Int64.sub (Obs.Clock.since_start_ns ()) t0 in
  Obs.Metrics.Histogram.observe h_build_seconds (Int64.to_float dt *. 1e-9);
  r

(* [key]'s value in [tbl], computed by [compute] at most once (see
   [cell]); a finished value that is not [usable] is dropped and
   computed again.  Called and returns with [t.mutex] held. *)
let once ?(usable = fun _ -> true) t tbl key compute =
  let rec look () =
    match Hashtbl.find_opt tbl key with
    | Some cell -> wait cell
    | None -> (
        let cell = { state = Busy } in
        Hashtbl.replace tbl key cell;
        Mutex.unlock t.mutex;
        match compute () with
        | v ->
            Mutex.lock t.mutex;
            cell.state <- Done v;
            Condition.broadcast t.cond;
            v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock t.mutex;
            cell.state <- Failed;
            drop cell;
            Condition.broadcast t.cond;
            Mutex.unlock t.mutex;
            Printexc.raise_with_backtrace e bt)
  and drop cell =
    match Hashtbl.find_opt tbl key with
    | Some c when c == cell -> Hashtbl.remove tbl key
    | Some _ | None -> ()
  and wait cell =
    match cell.state with
    | Done v when usable v -> v
    | Done _ ->
        drop cell;
        look ()
    | Busy ->
        Condition.wait t.cond t.mutex;
        wait cell
    | Failed -> look ()
  in
  look ()

(* The recording of class [cls], made by [probe.simulate] inside a
   capture at most once per engine and marked every [window] retired instructions
   (unmarked, one window, when the request has none).  A request with a
   window takes the class's recording only if it serves that window
   ({!Sim.Recording.serves}); otherwise a new one replaces it.  Looking
   one up drops every finished recording of another application, so
   the live streams are one application's.  [~claim] reports whether
   this call is the first miss priced from it. *)
let recording t (probe : _ Target.probe) app ?window ~claim cls =
  let key = key_of probe app cls in
  Mutex.lock t.mutex;
  Hashtbl.filter_map_inplace
    (fun (k : key) c ->
      match c.state with
      | Done _ when k.scope.app <> key.scope.app -> None
      | Done _ | Busy | Failed -> Some c)
    t.recordings;
  let usable r =
    match window with
    | None -> true
    | Some w -> Sim.Recording.serves r.recording ~window:w
  in
  let r =
    once ~usable t t.recordings key (fun () ->
        let _, recording =
          timed (fun () ->
              Sim.Recording.capture ?window (fun () ->
                  probe.Target.simulate app cls))
        in
        let replays = Hashtbl.create 16 in
        let icache, dcache = probe.Target.caches cls in
        let own_icache, own_dcache = Sim.Recording.own recording in
        Hashtbl.replace replays (Sim.Cache.Instruction, icache)
          { state = Done own_icache };
        Hashtbl.replace replays (Sim.Cache.Data, dcache) { state = Done own_dcache };
        { recording; claimed = false; replays })
  in
  let first = claim && not r.claimed in
  if first then r.claimed <- true;
  Mutex.unlock t.mutex;
  (r, first)

let replayed t r side geometry =
  Mutex.lock t.mutex;
  let v =
    once t r.replays (side, geometry) (fun () ->
        Sim.Recording.replay r.recording side geometry)
  in
  Mutex.unlock t.mutex;
  v

(* The recording of [config]'s execution class, with the window walk's
   recordings made at the same window; [~claim] as for [recording]. *)
let class_recording t (probe : _ Target.probe) app ?window ~claim config =
  let run c =
    Sim.Recording.profile (fst (recording t probe app ?window ~claim:false c)).recording
  in
  recording t probe app ?window ~claim (probe.Target.representative ~run config)

let replays_of t (probe : _ Target.probe) r config =
  let icache, dcache = probe.Target.caches config in
  ( replayed t r Sim.Cache.Instruction icache,
    replayed t r Sim.Cache.Data dcache )

(* An evaluation: [config]'s whole run priced from its class's
   recording with its own caches replayed.  The miss that first claims
   the recording is the build; every other is priced.  Returns the
   journal kind with the result. *)
let evaluate t (probe : _ Target.probe) app config =
  let r, built = class_recording t probe app ~claim:true config in
  Obs.Metrics.Counter.incr (if built then m_builds else m_priced);
  let icache, dcache = replays_of t probe r config in
  let seconds, profile =
    probe.Target.price config
      (List.fold_left Sim.Profiler.add (Sim.Profiler.create ())
         (Sim.Recording.profiles r.recording ~icache ~dcache ~boundaries:[]))
  in
  (seconds, profile, if built then "engine.build" else "engine.priced")

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
   waits on a corpse.  Each lookup counts once: a miss, or a hit, or a
   dedup when the entry it finds was created by its own batch (see
   [current_batch]). *)
let obtain t ~feasible_only ?noise probe app config =
  let key = key_of ?noise probe app config in
  let batch = !(Domain.DLS.get current_batch) in
  let counted = ref false in
  let journal kind extra =
    if Obs.Journal.enabled () then
      Obs.Journal.record ~kind (journal_fields probe app config @ extra)
  in
  (* Each lookup counts once, with [t.mutex] held. *)
  let count b =
    if not !counted then begin
      counted := true;
      let dedup = batch <> 0 && b = batch in
      Obs.Metrics.Counter.incr (if dedup then m_dedup else m_hits);
      journal (if dedup then "engine.dedup" else "engine.hit") []
    end
  in
  let compute prior =
    Obs.Metrics.Counter.incr m_misses;
    match
      Obs.Span.with_ ~cat:"dse" "engine.build"
        ~attrs:[ ("app", Obs.Json.String key.scope.app) ]
      @@ fun () ->
      let resources, fits =
        match prior with
        | Some r -> (r, false) (* a cached [Unfit]: skip re-elaboration *)
        | None -> noised_resources ?noise probe config
      in
      if feasible_only && not fits then (Unfit { resources; batch }, "engine.unfit")
      else
        let seconds, profile, kind = evaluate t probe app config in
        let packed = pack { Cost.seconds; resources } profile in
        (Full { packed; fits; batch }, kind)
    with
    | entry, kind ->
        Mutex.lock t.mutex;
        settle t key entry;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex;
        journal kind
          (match entry with
          | Full v -> [ ("fits", Obs.Json.Bool v.fits) ]
          | Unfit _ | Pending _ -> []);
        entry
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock t.mutex;
        remove t key;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex;
        Printexc.raise_with_backtrace e bt
  in
  Mutex.lock t.mutex;
  let rec loop () =
    let m = Hashtbl.find_opt t.table key.scope in
    match Option.bind m (fun m -> Hashtbl.find_opt m.digests key.digest) with
    | Some (Full v as e) ->
        count v.batch;
        Option.iter (fun m -> touch t m.group) m;
        Mutex.unlock t.mutex;
        e
    | Some (Unfit u as e) when feasible_only ->
        count u.batch;
        Option.iter (fun m -> touch t m.group) m;
        Mutex.unlock t.mutex;
        e
    | Some (Unfit u) ->
        (* A forced build of a known-unfit configuration. *)
        claim t key ~batch;
        Mutex.unlock t.mutex;
        compute (Some u.resources)
    | Some (Pending b) ->
        count b;
        Condition.wait t.cond t.mutex;
        loop ()
    | None ->
        claim t key ~batch;
        Mutex.unlock t.mutex;
        compute None
  in
  loop ()

(* [_uncounted] variants run the request without pool task accounting:
   they are what {!eval_all_feasible_on} submits to the pool (whose
   [Pool.map] / [Pool.run_inline] already count each unique request),
   while the public single-evaluation entry points below wrap them in
   {!Pool.run_inline} so sequential searches — coordinate descent,
   the paper method, random search — show up in [dse.pool.tasks] too
   instead of leaving it at 0. *)
let eval_on_uncounted ?noise t probe app config =
  match obtain t ~feasible_only:false ?noise probe app config with
  | Full v -> cost_of v.packed
  | Unfit _ | Pending _ -> assert false

let eval_on ?noise t probe app config =
  Pool.run_inline (fun () -> eval_on_uncounted ?noise t probe app config)

let eval_profiled_on ?noise t probe app config =
  Pool.run_inline (fun () ->
      match obtain t ~feasible_only:false ?noise probe app config with
      | Full v -> (cost_of v.packed, profile_of v.packed)
      | Unfit _ | Pending _ -> assert false)

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
    | Full v -> if v.fits then Some (cost_of v.packed) else None
    | Unfit _ -> None
    | Pending _ -> assert false

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
  let id = Atomic.fetch_and_add batches 1 + 1 in
  let f x = in_batch id (fun () -> f x) in
  match t.pool with
  | Some pool -> Pool.map pool f xs
  | None when Domain.recommended_domain_count () > 1 ->
      Pool.map (Pool.default ()) f xs
  | None -> List.map (fun x -> Pool.run_inline (fun () -> f x)) xs

(* A batch is collapsed to its distinct requests (first occurrence
   order), counting (and journalling) the collapsed repeats; the
   distinct ones are evaluated on the pool and the results fanned back
   out in input order. *)
let eval_all_feasible_on ?noise t probe app configs =
  match configs with
  | [] -> []
  | [ config ] -> [ eval_feasible_on ?noise t probe app config ]
  | _ ->
      ignore (Lazy.force app.Apps.Registry.program);
      let keyed =
        List.map (fun config -> (key_of ?noise probe app config, config)) configs
      in
      let seen = Hashtbl.create 64 in
      let uniques =
        List.filter
          (fun (k, config) ->
            if Hashtbl.mem seen k then begin
              Obs.Metrics.Counter.incr m_dedup;
              if Obs.Journal.enabled () then
                Obs.Journal.record ~kind:"engine.dedup"
                  (journal_fields probe app config);
              false
            end
            else begin
              Hashtbl.add seen k ();
              true
            end)
          keyed
      in
      Obs.Span.with_ ~cat:"dse" "engine.eval_all"
        ~attrs:
          [
            ("items", Obs.Json.Int (List.length keyed));
            ("unique", Obs.Json.Int (List.length uniques));
          ]
      @@ fun () ->
      let results =
        map t
          (fun (_, config) ->
            eval_feasible_on_uncounted ?noise t probe app config)
          uniques
      in
      let by_key = Hashtbl.create 64 in
      List.iter2 (fun (k, _) r -> Hashtbl.replace by_key k r) uniques results;
      List.map (fun (k, _) -> Hashtbl.find by_key k) keyed

(* A segmentation at multiples of [window]: strictly increasing
   positive boundaries. *)
let check_segmentation ~window boundaries =
  if window < 1 then invalid_arg "Engine: window must be >= 1";
  ignore
    (List.fold_left
       (fun prev b ->
         if b <= prev || b mod window <> 0 then
           invalid_arg
             "Engine: boundaries must be strictly increasing multiples of the \
              window";
         b)
       0 boundaries)

(* [parts] of [config]'s class recording made at [window], with
   [config]'s caches replayed over it, each priced under [config].  The
   recording stays unclaimed and no lookup is counted. *)
let priced_parts t (probe : _ Target.probe) app ~window parts config =
  let r, _ = class_recording t probe app ~window ~claim:false config in
  let icache, dcache = replays_of t probe r config in
  List.map
    (fun p -> snd (probe.Target.price config p))
    (parts r.recording ~icache ~dcache)

let windows_on t probe app ~window config =
  check_segmentation ~window [];
  ignore (Lazy.force app.Apps.Registry.program);
  priced_parts t probe app ~window
    (fun r ~icache ~dcache ->
      Sim.Recording.segments r ~icache ~dcache ~epoch:0
        ~boundaries:(Sim.Recording.window_starts r ~window))
    config

let segments_on t probe app ~window ~boundaries configs =
  check_segmentation ~window boundaries;
  ignore (Lazy.force app.Apps.Registry.program);
  map t
    (priced_parts t probe app ~window (Sim.Recording.profiles ~boundaries))
    configs

let recording_on t (probe : _ Target.probe) app ~window configs =
  check_segmentation ~window [];
  ignore (Lazy.force app.Apps.Registry.program);
  let recordings =
    List.map
      (fun c -> fst (class_recording t probe app ~window ~claim:false c))
      configs
  in
  match recordings with
  | r :: rest when List.for_all (fun r' -> r' == r) rest -> r.recording
  | _ -> invalid_arg "Engine.recording_on: configurations of different execution classes"

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

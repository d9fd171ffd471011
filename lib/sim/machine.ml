type result = {
  profile : Profiler.t;
  cold_cycles : int;
  warm_cycles : int;
  checksum : int;
}

let clock_hz = 25_000_000.0
let default_mem_size = 1 lsl 20

(* Registry counters mirroring the Liquid-platform statistics module:
   every simulated epoch flushes its profile here, so a metrics dump
   shows where simulated cycles went across a whole DSE run. *)
let m_runs = Obs.Metrics.Counter.v "sim.runs" ~help:"simulated executions"

let m_executed =
  Obs.Metrics.Counter.v "sim.executed_cycles"
    ~help:
      "cycles actually simulated: the cold epoch, plus one warm epoch when \
       reps > 1 outside a recording capture (inside one the warm epoch is \
       replayed, not simulated)"

let m_counter name =
  Obs.Metrics.Counter.v ("sim." ^ name) ~help:("profiler " ^ name)

(* [p] is the reps-scaled profile; [executed] the cycles of the epochs
   actually run. *)
let flush_profile p ~executed =
  Obs.Metrics.Counter.incr m_runs;
  Obs.Metrics.Counter.incr ~by:executed m_executed;
  List.iter
    (fun (name, v) -> Obs.Metrics.Counter.incr ~by:v (m_counter name))
    (Profiler.to_assoc p)

let run_once ?(mem_size = default_mem_size) config prog =
  let cpu = Cpu.create config prog ~mem_size in
  Cpu.run cpu;
  cpu

let cycles_attr (p : Profiler.t) =
  [
    ("cycles", Obs.Json.Int p.Profiler.cycles);
    ("instructions", Obs.Json.Int p.Profiler.instructions);
  ]

(* The warm epoch of a recorded run: every execution runs the cold
   epoch's stream again, so it is the cold epoch's counts with the
   misses of the recorded caches' warm replay, priced under the run's
   own cost table. *)
let replayed_warm recording cm =
  let icache, dcache = Recording.own recording in
  match Recording.segments recording ~icache ~dcache ~epoch:1 ~boundaries:[] with
  | [ warm ] -> Cost_model.price cm warm
  | _ -> assert false

let run ?(mem_size = default_mem_size) ?(reps = 1) ?shift_stall config prog =
  let recorder = Recording.start ~entry:prog.Isa.Program.entry in
  let cpu = Cpu.create ?shift_stall ?recorder config prog ~mem_size in
  let cold =
    Obs.Span.with_span ~cat:"sim" "sim.cold_epoch" (fun sp ->
        Cpu.run cpu;
        Cpu.stop_recording cpu;
        let cold = Profiler.copy (Cpu.profile cpu) in
        List.iter (fun (k, v) -> Obs.Span.add_attr sp k v) (cycles_attr cold);
        cold)
  in
  let checksum = Cpu.result cpu in
  let recording =
    Option.map
      (fun r ->
        Recording.deposit r ~reps ~checksum ~icache:config.Arch.Config.icache
          ~dcache:config.Arch.Config.dcache)
      recorder
  in
  (* the warm epoch, and the cycles actually simulated *)
  let warm, executed =
    match recording with
    | _ when reps = 1 -> (cold, cold.Profiler.cycles)
    | Some recording ->
        ( replayed_warm recording (Cost_model.of_arch_config ?shift_stall config),
          cold.Profiler.cycles )
    | None ->
        let warm =
          Obs.Span.with_span ~cat:"sim" "sim.warm_epoch" (fun sp ->
              Cpu.reset_profile cpu;
              Cpu.reinit cpu;
              Cpu.run cpu;
              let warm = Profiler.copy (Cpu.profile cpu) in
              List.iter (fun (k, v) -> Obs.Span.add_attr sp k v) (cycles_attr warm);
              warm)
        in
        let warm_sum = Cpu.result cpu in
        if warm_sum <> checksum then
          failwith
            (Printf.sprintf
               "Machine.run: non-deterministic application (cold checksum %d, warm %d)"
               checksum warm_sum);
        (warm, cold.Profiler.cycles + warm.Profiler.cycles)
  in
  let profile = if reps = 1 then cold else Profiler.scale_add cold ~warm ~reps in
  flush_profile profile ~executed;
  {
    profile;
    cold_cycles = cold.Profiler.cycles;
    warm_cycles = warm.Profiler.cycles;
    checksum;
  }

let profile_seconds (p : Profiler.t) = float_of_int p.Profiler.cycles /. clock_hz
let seconds r = profile_seconds r.profile

(* ------------------------------------------------------------------ *)
(* Phased execution: run the same program while switching the
   microarchitecture at pre-computed retired-instruction boundaries,
   charging a per-switch reconfiguration cost.  The epoch structure
   mirrors [run]: one cold execution, one warm execution scaled by
   [reps - 1].  Each warm repetition additionally pays [wrap_cycles]
   to reconfigure from the last phase's configuration back to the
   first one at the repetition boundary. *)

type switch = {
  at_insn : int;  (** retired-instruction boundary (per execution) *)
  config : Arch.Config.t;
  shift_stall : int;
  cycles : int;  (** reconfiguration cost charged at this switch *)
}

type phased = {
  result : result;
  phase_profiles : Profiler.t list;
      (** one per phase, scaled to [reps] executions; sums to
          [result.profile] *)
  switch_cycles : int;  (** total reconfiguration cycles in [result] *)
}

let check_switches switches =
  ignore
    (List.fold_left
       (fun prev sw ->
         if sw.at_insn <= prev then
           invalid_arg
             "Machine.run_phased: switch boundaries must be strictly increasing";
         sw.at_insn)
       0 switches)

(* One full execution with mid-run switches.  [config]/[stall] track
   the installed microarchitecture across epochs; switches that change
   nothing are skipped entirely — no reconfigure and no charge — which
   makes a degenerate 1-configuration schedule bit-identical to [run].
   Returns cumulative profiler snapshots at each boundary plus halt,
   and the switch cycles charged. *)
let phased_epoch cpu ~switches ~keep_caches ~config ~stall =
  let prof = Cpu.profile cpu in
  let snaps = ref [] in
  let charged = ref 0 in
  List.iter
    (fun sw ->
      Cpu.run_until cpu ~insns:sw.at_insn;
      snaps := Profiler.copy prof :: !snaps;
      if sw.config <> !config || sw.shift_stall <> !stall then begin
        if sw.cycles > 0 then begin
          prof.Profiler.cycles <- prof.Profiler.cycles + sw.cycles;
          charged := !charged + sw.cycles
        end;
        Cpu.reconfigure ~shift_stall:sw.shift_stall ~keep_caches cpu sw.config;
        config := sw.config;
        stall := sw.shift_stall
      end)
    switches;
  Cpu.run cpu;
  snaps := Profiler.copy prof :: !snaps;
  (List.rev !snaps, !charged)

(* Per-phase deltas from cumulative snapshots. *)
let snap_deltas snaps =
  let rec go prev = function
    | [] -> []
    | s :: tl -> Profiler.sub s prev :: go s tl
  in
  go (Profiler.create ()) snaps

let last_exn = function
  | [] -> invalid_arg "Machine: empty snapshot list"
  | l -> List.nth l (List.length l - 1)

let run_phased ?(mem_size = default_mem_size) ?(reps = 1) ?(shift_stall = 0)
    ?(keep_caches = false) ?(wrap_cycles = 0) ~switches config prog =
  check_switches switches;
  let cpu = Cpu.create ~shift_stall config prog ~mem_size in
  let cur_config = ref config in
  let cur_stall = ref shift_stall in
  let cold_snaps, cold_charged =
    Obs.Span.with_span ~cat:"sim" "sim.cold_epoch" (fun sp ->
        let snaps, charged =
          phased_epoch cpu ~switches ~keep_caches ~config:cur_config
            ~stall:cur_stall
        in
        List.iter
          (fun (k, v) -> Obs.Span.add_attr sp k v)
          (cycles_attr (last_exn snaps));
        (snaps, charged))
  in
  let cold = last_exn cold_snaps in
  let cold_sum = Cpu.result cpu in
  if reps = 1 then begin
    flush_profile cold ~executed:cold.Profiler.cycles;
    {
      result =
        {
          profile = cold;
          cold_cycles = cold.Profiler.cycles;
          warm_cycles = cold.Profiler.cycles;
          checksum = cold_sum;
        };
      phase_profiles = snap_deltas cold_snaps;
      switch_cycles = cold_charged;
    }
  end
  else begin
    let warm_snaps, warm_charged =
      Obs.Span.with_span ~cat:"sim" "sim.warm_epoch" (fun sp ->
          Cpu.reset_profile cpu;
          (* the repetition boundary reconfigures back to the first
             phase's configuration; the wrap charge lands in the first
             phase of the warm profile, so [scale_add] counts it once
             per repetition *)
          let prof = Cpu.profile cpu in
          if wrap_cycles > 0 then
            prof.Profiler.cycles <- prof.Profiler.cycles + wrap_cycles;
          if !cur_config <> config || !cur_stall <> shift_stall then begin
            Cpu.reconfigure ~shift_stall ~keep_caches cpu config;
            cur_config := config;
            cur_stall := shift_stall
          end;
          Cpu.reinit cpu;
          let snaps, charged =
            phased_epoch cpu ~switches ~keep_caches ~config:cur_config
              ~stall:cur_stall
          in
          List.iter
            (fun (k, v) -> Obs.Span.add_attr sp k v)
            (cycles_attr (last_exn snaps));
          (snaps, charged))
    in
    let warm = last_exn warm_snaps in
    let warm_sum = Cpu.result cpu in
    if warm_sum <> cold_sum then
      failwith
        (Printf.sprintf
           "Machine.run_phased: non-deterministic application (cold checksum \
            %d, warm %d)"
           cold_sum warm_sum);
    let profile = Profiler.scale_add cold ~warm ~reps in
    flush_profile profile
      ~executed:(cold.Profiler.cycles + warm.Profiler.cycles);
    {
      result =
        {
          profile;
          cold_cycles = cold.Profiler.cycles;
          warm_cycles = warm.Profiler.cycles;
          checksum = cold_sum;
        };
      phase_profiles =
        List.map2
          (fun c w -> Profiler.scale_add c ~warm:w ~reps)
          (snap_deltas cold_snaps) (snap_deltas warm_snaps);
      switch_cycles = cold_charged + ((reps - 1) * (wrap_cycles + warm_charged));
    }
  end

let run_segmented ?mem_size ?reps ?(shift_stall = 0) ~boundaries config prog =
  let switches =
    List.map
      (fun b -> { at_insn = b; config; shift_stall; cycles = 0 })
      boundaries
  in
  run_phased ?mem_size ?reps ~shift_stall ~switches config prog

(* [run_phased] from a recording of the same program on a configuration
   of the same execution class: the phases' event counts are the
   recording's, each cache is replayed through the switches that
   execute, and each phase is priced under the configuration installed
   during it, plus the charges [phased_epoch] makes. *)
let replay_phased ?(shift_stall = 0) ?(keep_caches = false) ?(wrap_cycles = 0)
    ~switches recording config =
  check_switches switches;
  let reps = Recording.reps recording in
  let action old_geometry new_geometry =
    if keep_caches && old_geometry = new_geometry then Recording.Keep
    else Recording.Fresh new_geometry
  in
  (* Walk the switches as [phased_epoch] does, skipping a switch to the
     installed configuration: per phase, the cost table installed
     during it and the charge at its start; per side, the executed
     switches' cache actions, newest first. *)
  let installed = ref (config, shift_stall) in
  let phases = ref [ (Cost_model.of_arch_config ~shift_stall config, 0) ] in
  let icache_switches = ref [] and dcache_switches = ref [] in
  List.iter
    (fun sw ->
      let (cfg : Arch.Config.t), stall = !installed in
      if sw.config <> cfg || sw.shift_stall <> stall then begin
        icache_switches :=
          (sw.at_insn, action cfg.Arch.Config.icache sw.config.Arch.Config.icache)
          :: !icache_switches;
        dcache_switches :=
          (sw.at_insn, action cfg.Arch.Config.dcache sw.config.Arch.Config.dcache)
          :: !dcache_switches;
        installed := (sw.config, sw.shift_stall);
        phases :=
          ( Cost_model.of_arch_config ~shift_stall:sw.shift_stall sw.config,
            max 0 sw.cycles )
          :: !phases
      end
      else phases := (fst (List.hd !phases), 0) :: !phases)
    switches;
  let phases = List.rev !phases in
  let last, last_stall = !installed in
  let replay side geometry_of switches =
    let wrap =
      if last <> config || last_stall <> shift_stall then
        Some (action (geometry_of last) (geometry_of config))
      else None
    in
    Recording.replay ~switches:(List.rev switches) ?wrap recording side
      (geometry_of config)
  in
  let icache =
    replay Cache.Instruction (fun c -> c.Arch.Config.icache) !icache_switches
  and dcache = replay Cache.Data (fun c -> c.Arch.Config.dcache) !dcache_switches in
  let boundaries = List.map (fun sw -> sw.at_insn) switches in
  (* the wrap charge lands in the first phase of the warm epoch *)
  let epoch e ~wrap_charge =
    List.mapi
      (fun k (p, (cm, charge)) ->
        let p = Cost_model.price cm p in
        p.Profiler.cycles <-
          p.Profiler.cycles + charge + if k = 0 then wrap_charge else 0;
        p)
      (List.combine
         (Recording.segments recording ~icache ~dcache ~epoch:e ~boundaries)
         phases)
  in
  let sum = List.fold_left Profiler.add (Profiler.create ()) in
  let charged = List.fold_left (fun acc (_, c) -> acc + c) 0 phases in
  let cold_phases = epoch 0 ~wrap_charge:0 in
  let cold = sum cold_phases in
  let checksum = Recording.checksum recording in
  if reps = 1 then
    {
      result =
        {
          profile = cold;
          cold_cycles = cold.Profiler.cycles;
          warm_cycles = cold.Profiler.cycles;
          checksum;
        };
      phase_profiles = cold_phases;
      switch_cycles = charged;
    }
  else begin
    let warm_phases = epoch 1 ~wrap_charge:(max 0 wrap_cycles) in
    let warm = sum warm_phases in
    {
      result =
        {
          profile = Profiler.scale_add cold ~warm ~reps;
          cold_cycles = cold.Profiler.cycles;
          warm_cycles = warm.Profiler.cycles;
          checksum;
        };
      phase_profiles =
        List.map2
          (fun c w -> Profiler.scale_add c ~warm:w ~reps)
          cold_phases warm_phases;
      switch_cycles = charged + ((reps - 1) * (wrap_cycles + charged));
    }
  end

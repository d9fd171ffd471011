(* Tests for program-phase detection and phased execution: a pinned
   change-point golden on a two-phase microprogram, 1-phase/static
   bit-identity, segmented telescoping, the cache-retention policy
   across a reconfiguration switch, and the one-phase schedule
   formulation being the static BINLP. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let base = Arch.Config.base

let with_iu f = { base with Arch.Config.iu = f base.Arch.Config.iu }

let compile source =
  let ast =
    match Minic.Parser.parse source with
    | Ok p -> p
    | Error m -> failwith m
  in
  Minic.Check.check_exn ast;
  Minic.Codegen.compile ast

(* Change-point microprogram: an initialization loop, then repeated
   streaming passes over three arrays (6 KB working set, thrashing the
   base 4 KB dcache), then a multiply-heavy reduction — three regimes
   with crisply different feature vectors, so the detected boundaries
   are identical across a wide threshold range. *)
let three_phase_source =
  {|
int a[512];
int b[512];
int c[512];

int main() {
  int i, pass, acc;
  acc = 0;
  i = 0;
  while (i < 512) { a[i] = i; b[i] = i + i; c[i] = i ^ 5; i = i + 1; }
  pass = 0;
  while (pass < 24) {
    i = 0;
    while (i < 512) { acc = acc + a[i] + b[i] + c[i]; i = i + 1; }
    pass = pass + 1;
  }
  i = 0;
  while (i < 12000) { acc = acc + i * i * i * 17; i = i + 1; }
  return acc & 0x7FFFFFFF;
}
|}

(* Machine-test microprogram: streaming passes over a single 2 KB
   array that fits the base 4 KB dcache, so cache retention across a
   reconfiguration switch is observable. *)
let stream_source =
  {|
int a[512];

int main() {
  int i, pass, acc;
  acc = 0;
  i = 0;
  while (i < 512) { a[i] = i; i = i + 1; }
  pass = 0;
  while (pass < 24) {
    i = 0;
    while (i < 512) { acc = acc + a[i]; i = i + 1; }
    pass = pass + 1;
  }
  i = 0;
  while (i < 12000) { acc = acc + i * i * i * 17; i = i + 1; }
  return acc & 0x7FFFFFFF;
}
|}

let three_phase_prog = lazy (compile three_phase_source)
let two_phase_prog = lazy (compile stream_source)

(* Tighter windows than the schedule pipeline's defaults: the
   microprograms retire a few hundred thousand instructions, so
   1024-instruction windows give the detector enough samples per
   regime. *)
let micro_options =
  {
    Sim.Phase.default_options with
    Sim.Phase.window = 1024;
    min_windows = 2;
    max_phases = 8;
  }

(* --- pinned change-point golden --- *)

let test_three_phase_pinned () =
  let prog = Lazy.force three_phase_prog in
  let t = Sim.Phase.detect ~options:micro_options base prog in
  check_int "three phases" 3 (Sim.Phase.count t);
  Alcotest.(check (list int))
    "pinned boundaries" [ 12288; 308224 ] (Sim.Phase.boundaries t);
  check_int "total instructions" 524029 t.Sim.Phase.total_insns;
  match t.Sim.Phase.phases with
  | [ p1; p2; p3 ] ->
      Alcotest.(check string)
        "init class" "compute"
        (Sim.Phase.dominant p1.Sim.Phase.profile);
      Alcotest.(check string)
        "stream class" "memory"
        (Sim.Phase.dominant p2.Sim.Phase.profile);
      Alcotest.(check string)
        "reduction class" "arith"
        (Sim.Phase.dominant p3.Sim.Phase.profile);
      check_bool "reduction carries the multiplies" true
        (p3.Sim.Phase.profile.Sim.Profiler.mults
        > p2.Sim.Phase.profile.Sim.Profiler.mults)
  | _ -> Alcotest.fail "expected exactly three phases"

(* The boundaries must not move with the threshold: the regime changes
   are far above any reasonable sensitivity, which is what makes the
   pinned golden robust. *)
let test_pinning_threshold_stable () =
  let prog = Lazy.force three_phase_prog in
  List.iter
    (fun threshold ->
      let t =
        Sim.Phase.detect
          ~options:{ micro_options with Sim.Phase.threshold }
          base prog
      in
      Alcotest.(check (list int))
        (Printf.sprintf "boundaries at threshold %.2f" threshold)
        [ 12288; 308224 ] (Sim.Phase.boundaries t))
    [ 0.15; 0.25; 0.35 ]

let test_detection_deterministic () =
  let prog = Lazy.force three_phase_prog in
  let d () =
    Sim.Phase.digest (Sim.Phase.detect ~options:micro_options base prog)
  in
  Alcotest.(check string) "digest stable" (d ()) (d ())

(* --- 1-phase schedule = static bit-identity --- *)

let test_one_phase_bit_identity () =
  let prog = Lazy.force two_phase_prog in
  let r = Sim.Machine.run ~reps:3 base prog in
  let empty = Sim.Machine.run_phased ~reps:3 ~switches:[] base prog in
  let self_switch =
    (* A switch to the already-installed configuration is skipped, so
       the uniform schedule must stay bit-identical even with a
       nominal switch cost attached. *)
    Sim.Machine.run_phased ~reps:3
      ~switches:
        [
          {
            Sim.Machine.at_insn = 50_000;
            config = base;
            shift_stall = 0;
            cycles = 4000;
          };
        ]
      base prog
  in
  List.iter
    (fun (label, (ph : Sim.Machine.phased)) ->
      check_bool (label ^ ": profile identical") true
        (ph.Sim.Machine.result.Sim.Machine.profile = r.Sim.Machine.profile);
      check_int (label ^ ": cold cycles") r.Sim.Machine.cold_cycles
        ph.Sim.Machine.result.Sim.Machine.cold_cycles;
      check_int (label ^ ": warm cycles") r.Sim.Machine.warm_cycles
        ph.Sim.Machine.result.Sim.Machine.warm_cycles;
      check_int (label ^ ": checksum") r.Sim.Machine.checksum
        ph.Sim.Machine.result.Sim.Machine.checksum;
      check_int (label ^ ": no switch cycles") 0 ph.Sim.Machine.switch_cycles)
    [ ("empty", empty); ("self-switch", self_switch) ]

(* --- segmented telescoping --- *)

let test_segmented_telescoping () =
  let prog = Lazy.force two_phase_prog in
  let r = Sim.Machine.run ~reps:2 base prog in
  let t = Sim.Phase.detect ~options:micro_options base prog in
  let seg =
    Sim.Machine.run_segmented ~reps:2
      ~boundaries:(Sim.Phase.boundaries t)
      base prog
  in
  check_bool "result bit-identical to run" true
    (seg.Sim.Machine.result = r);
  check_int "one profile per phase" (Sim.Phase.count t)
    (List.length seg.Sim.Machine.phase_profiles);
  let total f =
    List.fold_left (fun acc p -> acc + f p) 0 seg.Sim.Machine.phase_profiles
  in
  List.iter
    (fun (label, f) ->
      check_int ("phase profiles telescope: " ^ label)
        (f r.Sim.Machine.profile) (total f))
    [
      ("cycles", fun p -> p.Sim.Profiler.cycles);
      ("instructions", fun p -> p.Sim.Profiler.instructions);
      ("dcache reads", fun p -> p.Sim.Profiler.dcache_reads);
      ("dcache read misses", fun p -> p.Sim.Profiler.dcache_read_misses);
      ("dcache writes", fun p -> p.Sim.Profiler.dcache_writes);
      ("branches", fun p -> p.Sim.Profiler.branches);
      ("mults", fun p -> p.Sim.Profiler.mults);
      ("icache misses", fun p -> p.Sim.Profiler.icache_misses);
    ]

(* --- cache retention across a switch --- *)

let test_keep_caches_policy () =
  let prog = Lazy.force two_phase_prog in
  (* Switch mid-way through the streaming passes, when the array is
     resident, to a configuration whose caches are untouched (only the
     multiplier changes).  Kept caches stay warm; the flush policy
     restarts them cold and must re-fill the array's lines. *)
  let switch =
    {
      Sim.Machine.at_insn = 50_000;
      config =
        with_iu (fun u ->
            { u with Arch.Config.multiplier = Arch.Config.Mul_32x32 });
      shift_stall = 0;
      cycles = 0;
    }
  in
  let run ~keep_caches =
    Sim.Machine.run_phased ~reps:1 ~keep_caches ~switches:[ switch ] base prog
  in
  let kept = run ~keep_caches:true in
  let flushed = run ~keep_caches:false in
  let misses (ph : Sim.Machine.phased) =
    ph.Sim.Machine.result.Sim.Machine.profile.Sim.Profiler.dcache_read_misses
  in
  let cycles (ph : Sim.Machine.phased) =
    ph.Sim.Machine.result.Sim.Machine.profile.Sim.Profiler.cycles
  in
  check_int "same checksum either way"
    kept.Sim.Machine.result.Sim.Machine.checksum
    flushed.Sim.Machine.result.Sim.Machine.checksum;
  check_bool "kept caches miss less" true (misses kept < misses flushed);
  check_bool "kept caches run faster" true (cycles kept < cycles flushed)

(* --- The one-phase schedule is the static BINLP --- *)

module Leon2 = Dse.Leon2.S

(* The all-dims LEON2 model holds the register-window rows, the
   target's static groups.  With one phase they keep their model
   positions (nothing to share them across) and there is no switch to
   charge, not even the wrap-around between repetitions. *)
let test_one_phase_schedule_is_static () =
  let m = Leon2.Measure.build Apps.Registry.blastn in
  let rows = m.Leon2.Measure.rows in
  let static_rows =
    List.filter
      (fun (r : Leon2.Measure.row) ->
        List.mem r.Leon2.Measure.var.Arch.Param.group
          Dse.Target_leon2.static_groups)
      rows
  in
  check_int "register-window rows" 17 (List.length static_rows);
  let weights = Dse.Cost.runtime_weights in
  let sched = Leon2.Formulate.make_schedule ~reps:3 ~weights [ m ] in
  check_int "one phase" 1 (Array.length sched.Leon2.Formulate.slots);
  check_bool "no switch terms" true (sched.Leon2.Formulate.switch_terms = []);
  check_bool "slots follow model order" true
    (List.equal
       (fun (j, r) (j', r') -> j = j' && r == r')
       sched.Leon2.Formulate.slots.(0)
       (List.mapi (fun j r -> (j, r)) rows));
  check_bool "the static problem for any reps" true
    (sched.Leon2.Formulate.problem = Leon2.Formulate.make weights m);
  let two = Leon2.Formulate.make_schedule ~reps:3 ~weights [ m; m ] in
  check_int "two phases share the static rows"
    ((2 * (List.length rows - 17)) + 17)
    two.Leon2.Formulate.problem.Optim.Binlp.nvars;
  check_bool "two phases charge switches" true
    (two.Leon2.Formulate.switch_terms <> [])

let () =
  Alcotest.run "phase"
    [
      ( "detect",
        [
          Alcotest.test_case "pinned three-phase golden" `Quick
            test_three_phase_pinned;
          Alcotest.test_case "threshold stability" `Quick
            test_pinning_threshold_stable;
          Alcotest.test_case "deterministic digest" `Quick
            test_detection_deterministic;
        ] );
      ( "phased",
        [
          Alcotest.test_case "1-phase bit identity" `Quick
            test_one_phase_bit_identity;
          Alcotest.test_case "segmented telescoping" `Quick
            test_segmented_telescoping;
          Alcotest.test_case "keep-caches policy" `Quick
            test_keep_caches_policy;
        ] );
      ( "formulate",
        [
          Alcotest.test_case "one phase is the static BINLP" `Quick
            test_one_phase_schedule_is_static;
        ] );
    ]

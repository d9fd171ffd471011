(* Simulator-throughput smoke test (@sim-perf): run a fixed
   ~100M-cycle workload through the decoded direct-threaded core
   twice in one process, record simulated-cycles-per-second for each
   run, and gate the second run against the first with the standard
   bench-history rules — sim_cycles pinned at 1.05x (the workload is
   deterministic, so any drift is a bug) and throughput floored at
   0.67x.  The bench binary applies the same rules to its work
   counters across processes via BENCH_history.jsonl; throughput is
   gated here, from executed cycles over this loop's own time. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let iterations = 10_000_000

(* Six-instruction loop, ~10 cycles per iteration on the base config:
   a load/increment/store chain (with one deliberate load-use
   interlock), a flag-setting decrement and a taken backward branch
   with its ICC hold — exercising every hot handler class. *)
let program () =
  let o0 = Isa.Reg.o 0 and o1 = Isa.Reg.o 1 and o2 = Isa.Reg.o 2 in
  let a = Isa.Asm.create () in
  let buf = Isa.Asm.data_zero a ~name:"acc" 16 in
  Isa.Asm.set32 a buf o1;
  Isa.Asm.set32 a iterations o0;
  Isa.Asm.label a "top";
  Isa.Asm.emit a
    (Isa.Insn.Load
       { width = Isa.Insn.Word; signed = false; rd = o2; rs1 = o1;
         op2 = Isa.Insn.Imm 0 });
  Isa.Asm.emit a
    (Isa.Insn.Alu
       { op = Isa.Insn.Add; cc = false; rd = o2; rs1 = o2;
         op2 = Isa.Insn.Imm 1 });
  Isa.Asm.emit a
    (Isa.Insn.Store
       { width = Isa.Insn.Word; rs = o2; rs1 = o1; op2 = Isa.Insn.Imm 0 });
  Isa.Asm.emit a
    (Isa.Insn.Alu
       { op = Isa.Insn.Sub; cc = true; rd = o0; rs1 = o0;
         op2 = Isa.Insn.Imm 1 });
  Isa.Asm.bcc a Isa.Insn.Ne "top";
  Isa.Asm.emit a Isa.Insn.Halt;
  Isa.Asm.finish a ~entry:0

let run_once prog =
  let t0 = Obs.Clock.now_ns () in
  let r = Sim.Machine.run ~reps:1 Arch.Config.base prog in
  let wall_ns = Int64.sub (Obs.Clock.now_ns ()) t0 in
  let cycles = r.Sim.Machine.profile.Sim.Profiler.cycles in
  (cycles, Int64.to_float wall_ns /. 1e9)

let entry cycles wall_s =
  let wall_s = if wall_s > 0.0 then wall_s else 1e-9 in
  {
    Obs.History.rev = "sim-perf-smoke";
    target = "sim-perf";
    time = 0.0;
    metrics =
      [
        ("sim_cycles", float_of_int cycles);
        ("sim_cycles_per_second", float_of_int cycles /. wall_s);
        ("wall_clock_s", wall_s);
      ];
  }

let () =
  let path = "sim_perf.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let prog = program () in
  let c1, w1 = run_once prog in
  if c1 < 50_000_000 then
    fail "workload too small to measure: %d cycles" c1;
  Obs.History.append path (entry c1 w1);
  let c2, w2 = run_once prog in
  if c2 <> c1 then fail "nondeterministic cycle count: %d vs %d" c1 c2;
  let history =
    match Obs.History.load path with
    | Ok h -> h
    | Error m -> fail "history did not round-trip: %s" m
  in
  (match Obs.History.check ~history (entry c2 w2) with
  | [] -> ()
  | regs ->
      List.iter
        (fun r -> Format.eprintf "sim-perf: REGRESSION %a@." Obs.History.pp_regression r)
        regs;
      exit 1);
  Obs.History.append path (entry c2 w2);
  Printf.printf "sim-perf: %d cycles, %.1f / %.1f Mcycles/s (cold/warm): ok\n"
    c1
    (float_of_int c1 /. w1 /. 1e6)
    (float_of_int c2 /. w2 /. 1e6)

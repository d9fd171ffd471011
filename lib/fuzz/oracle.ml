module T2 = QCheck2.Test
module R = QCheck2.TestResult

type outcome =
  | Pass of { trials : int }
  | Fail of { counterexample : string; shrink_steps : int; messages : string list }
  | Crash of { counterexample : string; message : string }

type t =
  | T : {
      name : string;
      doc : string;
      gen : 'a QCheck2.Gen.t;
      print : 'a -> string;
      prop : 'a -> bool;
    }
      -> t

let name (T o) = o.name
let doc (T o) = o.doc

let run ?(count = 200) ~seed (T o) =
  let cell = T2.make_cell ~name:o.name ~count ~print:o.print o.gen o.prop in
  let rand = Random.State.make [| seed |] in
  match R.get_state (T2.check_cell ~rand cell) with
  | R.Success -> Pass { trials = count }
  | R.Failed { instances = [] } ->
      Fail { counterexample = "<none>"; shrink_steps = 0; messages = [] }
  | R.Failed { instances = c :: _ } ->
      Fail
        {
          counterexample = o.print c.instance;
          shrink_steps = c.shrink_steps;
          messages = c.msg_l;
        }
  | R.Failed_other { msg } ->
      Fail { counterexample = "<none>"; shrink_steps = 0; messages = [ msg ] }
  | R.Error { instance; exn; backtrace = _ } ->
      Crash
        {
          counterexample = o.print instance.instance;
          message = Printexc.to_string exn;
        }

(* ------------------------------------------------------------------ *)
(* Shared plumbing                                                     *)
(* ------------------------------------------------------------------ *)

(* Far beyond what a generated program can consume (loops iterate at
   most 8x8 times over a handful of statements), so exhaustion means a
   termination bug, not an undersized budget. *)
let fuel = 2_000_000

let checked p =
  match Minic.Check.check p with
  | Ok () -> ()
  | Error errs ->
      T2.fail_reportf "generator emitted an invalid program:@ %s"
        (String.concat "; " errs)

let interp p =
  match Minic.Interp.run ~fuel p with
  | v -> Ok v
  | exception Minic.Interp.Runtime_error m -> Error m

let interp_clean p =
  match interp p with
  | Ok v -> v
  | Error m ->
      T2.fail_reportf "interpreter trapped on a safe-by-construction program: %s"
        m

let simulate config prog =
  let cpu = Sim.Cpu.create config prog ~mem_size:(1 lsl 20) in
  Sim.Cpu.run ~max_insns:20_000_000 cpu;
  if not (Sim.Cpu.halted cpu) then
    T2.fail_reportf "simulator did not halt within 20M instructions";
  Sim.Cpu.result cpu

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

let interp_vs_sim =
  T
    {
      name = "interp-vs-sim";
      doc =
        "compiled execution on a random valid configuration matches the \
         reference interpreter";
      gen = QCheck2.Gen.pair Gen.program Gen.config;
      print =
        (fun (p, c) ->
          Printf.sprintf "// config: %s\n%s" (Gen.print_config c)
            (Gen.print_program p));
      prop =
        (fun (p, config) ->
          checked p;
          (match Arch.Config.validate config with
          | Ok () -> ()
          | Error m -> T2.fail_reportf "generator emitted invalid config: %s" m);
          let expected = interp_clean p in
          let got = simulate config (Minic.Codegen.compile p) in
          if got <> expected then
            T2.fail_reportf "interp=%d sim=%d under %s" expected got
              (Gen.print_config config)
          else true);
    }

let optimize_preserves =
  T
    {
      name = "optimize-preserves";
      doc =
        "--O1/--O2 rewriting preserves interpreter semantics and compiled \
         results";
      gen = QCheck2.Gen.pair Gen.program (QCheck2.Gen.oneofl [ 1; 2 ]);
      print =
        (fun (p, level) ->
          Printf.sprintf "// level: %d\n%s" level (Gen.print_program p));
      prop =
        (fun (p, level) ->
          checked p;
          let expected = interp_clean p in
          let q = Minic.Optimize.program ~level p in
          (match Minic.Check.check q with
          | Ok () -> ()
          | Error errs ->
              T2.fail_reportf "optimized program fails Check: %s"
                (String.concat "; " errs));
          (match interp q with
          | Ok v when v = expected -> ()
          | Ok v ->
              T2.fail_reportf "O%d changed the result: %d -> %d" level expected
                v
          | Error m -> T2.fail_reportf "O%d introduced a trap: %s" level m);
          let got = simulate Arch.Config.base (Minic.Codegen.compile q) in
          if got <> expected then
            T2.fail_reportf "compiled O%d result %d differs from interp %d"
              level got expected
          else true);
    }

let uninit_warning (f : Minic.Lint.finding) =
  f.severity = Minic.Lint.Warning
  && (let msg = f.message in
      let needle = "before initialization" in
      let n = String.length needle and m = String.length msg in
      let rec scan i = i + n <= m && (String.sub msg i n = needle || scan (i + 1)) in
      scan 0)

let lint_sound =
  T
    {
      name = "lint-sound";
      doc =
        "no definite-trap error or uninitialized-use warning on a program \
         that is safe on every path";
      gen = Gen.program;
      print = Gen.print_program;
      prop =
        (fun p ->
          checked p;
          ignore (interp_clean p);
          let findings = Minic.Lint.program p in
          match
            List.find_opt
              (fun (f : Minic.Lint.finding) ->
                f.severity = Minic.Lint.Error || uninit_warning f)
              findings
          with
          | Some f ->
              T2.fail_reportf "unsound finding: %a" Minic.Lint.pp_finding f
          | None -> true);
    }

let codec_roundtrip =
  T
    {
      name = "codec-roundtrip";
      doc =
        "Arch.Codec print/parse/digest round-trips; duplicates and stray \
         commas are rejected";
      gen = Gen.config;
      print = Gen.print_config;
      prop =
        (fun c ->
          (match Arch.Config.validate c with
          | Ok () -> ()
          | Error m -> T2.fail_reportf "generator emitted invalid config: %s" m);
          let s = Arch.Codec.to_string c in
          (match Arch.Codec.of_string s with
          | Error m -> T2.fail_reportf "of_string rejected %S: %s" s m
          | Ok c' ->
              if not (Arch.Config.equal c c') then
                T2.fail_reportf "round-trip changed the config: %S -> %S" s
                  (Arch.Codec.to_string c');
              if Arch.Codec.digest c <> Arch.Codec.digest c' then
                T2.fail_reportf "digest differs across a round-trip of %S" s);
          (match Arch.Codec.of_string (s ^ ",") with
          | Ok c' when Arch.Config.equal c c' -> ()
          | Ok _ -> T2.fail_reportf "trailing comma changed the config: %S" s
          | Error m ->
              T2.fail_reportf "single trailing comma rejected on %S: %s" s m);
          (match Arch.Codec.of_string (s ^ ",,") with
          | Error _ -> ()
          | Ok _ -> T2.fail_reportf "double trailing comma accepted on %S" s);
          let first_field = String.sub s 0 (String.index s ',') in
          (match Arch.Codec.of_string (s ^ "," ^ first_field) with
          | Error _ -> ()
          | Ok _ ->
              T2.fail_reportf "duplicate field %S accepted on %S" first_field s);
          true);
    }

let mb_codec_roundtrip =
  T
    {
      name = "mb-codec-roundtrip";
      doc =
        "Arch.Mb_codec print/parse/digest round-trips; duplicates and stray \
         commas are rejected";
      gen = Gen.mb_config;
      print = Gen.print_mb_config;
      prop =
        (fun c ->
          (match Arch.Mb_config.validate c with
          | Ok () -> ()
          | Error m -> T2.fail_reportf "generator emitted invalid config: %s" m);
          let s = Arch.Mb_codec.to_string c in
          (match Arch.Mb_codec.of_string s with
          | Error m -> T2.fail_reportf "of_string rejected %S: %s" s m
          | Ok c' ->
              if not (Arch.Mb_config.equal c c') then
                T2.fail_reportf "round-trip changed the config: %S -> %S" s
                  (Arch.Mb_codec.to_string c');
              if Arch.Mb_codec.digest c <> Arch.Mb_codec.digest c' then
                T2.fail_reportf "digest differs across a round-trip of %S" s);
          (match Arch.Mb_codec.of_string (s ^ ",") with
          | Ok c' when Arch.Mb_config.equal c c' -> ()
          | Ok _ -> T2.fail_reportf "trailing comma changed the config: %S" s
          | Error m ->
              T2.fail_reportf "single trailing comma rejected on %S: %s" s m);
          (match Arch.Mb_codec.of_string (s ^ ",,") with
          | Error _ -> ()
          | Ok _ -> T2.fail_reportf "double trailing comma accepted on %S" s);
          let first_field = String.sub s 0 (String.index s ',') in
          (match Arch.Mb_codec.of_string (s ^ "," ^ first_field) with
          | Error _ -> ()
          | Ok _ ->
              T2.fail_reportf "duplicate field %S accepted on %S" first_field s);
          true);
    }

let binlp_exact =
  T
    {
      name = "binlp-exact";
      doc =
        "branch-and-bound solve agrees with brute-force enumeration on small \
         SOS1 instances";
      gen = Gen.binlp_problem;
      print = Gen.print_binlp;
      prop =
        (fun p ->
          let brute = Optim.Binlp.brute_force p in
          let solved = Optim.Binlp.solve ~node_limit:2_000_000 p in
          if solved.Optim.Binlp.status <> Optim.Binlp.Optimal then
            T2.fail_reportf "solver hit the node limit on a small instance";
          match (brute, solved.Optim.Binlp.best) with
          | None, None -> true
          | Some b, None ->
              T2.fail_reportf
                "solver reported infeasible but brute force found objective %g"
                b.objective
          | None, Some s ->
              T2.fail_reportf
                "solver found objective %g but brute force says infeasible \
                 (point feasible: %b)"
                s.objective
                (Optim.Binlp.check p s.x)
          | Some b, Some s ->
              if not (Optim.Binlp.check p s.x) then
                T2.fail_reportf "solver returned an infeasible point";
              if Float.abs (s.objective -. b.objective) > 1e-6 then
                T2.fail_reportf "objectives differ: solve=%g brute=%g"
                  s.objective b.objective;
              (* The pinned tie-break (bit-exact minimal objective,
                 then lexicographically-smallest assignment; both
                 sides recompute objectives in index order, and the
                 generator emits exact dyadic coefficients) makes the
                 winning assignment itself comparable, not just its
                 objective. *)
              if s.x <> b.x then
                T2.fail_reportf
                  "tie-break diverged: solve and brute force picked \
                   different optimal assignments (obj %g)"
                  s.objective
              else true);
    }

(* Explicit 2- and 4-worker pools for one trial, joined when it ends:
   an idle domain left alive takes part in every stop-the-world
   collection of everything that runs after it.  The host may have a
   single core — the point is scheduling interleaving, not speed. *)
let with_par_pools f =
  let pool2 = Dse.Pool.create ~workers:2 () in
  let pool4 = Dse.Pool.create ~workers:4 () in
  Fun.protect
    ~finally:(fun () ->
      Dse.Pool.shutdown pool2;
      Dse.Pool.shutdown pool4)
    (fun () -> f pool2 pool4)

let binlp_par =
  T
    {
      name = "binlp-par";
      doc =
        "parallel solve (2 and 4 workers) is bit-identical to the sequential \
         solve: same status, same winner";
      gen = Gen.binlp_problem;
      print = Gen.print_binlp;
      prop =
        (fun p ->
          let seq = Optim.Binlp.solve ~node_limit:2_000_000 p in
          with_par_pools @@ fun pool2 pool4 ->
          List.iter
            (fun (label, pool) ->
              let par =
                Optim.Binlp.solve ~node_limit:2_000_000
                  ~runner:(Dse.Pool.solver_runner pool)
                  p
              in
              if par.Optim.Binlp.status <> seq.Optim.Binlp.status then
                T2.fail_reportf "%s: status differs from sequential" label;
              match (seq.Optim.Binlp.best, par.Optim.Binlp.best) with
              | None, None -> ()
              | Some s, Some q
                when Int64.bits_of_float s.Optim.Binlp.objective
                     = Int64.bits_of_float q.Optim.Binlp.objective
                     && s.Optim.Binlp.x = q.Optim.Binlp.x ->
                  ()
              | Some s, Some q ->
                  T2.fail_reportf
                    "%s: winner differs: seq obj=%g par obj=%g (same \
                     assignment: %b)"
                    label s.Optim.Binlp.objective q.Optim.Binlp.objective
                    (s.Optim.Binlp.x = q.Optim.Binlp.x)
              | Some _, None ->
                  T2.fail_reportf "%s: parallel solve reported infeasible"
                    label
              | None, Some _ ->
                  T2.fail_reportf
                    "%s: parallel solve found a point on an infeasible \
                     instance"
                    label)
            [ ("2-workers", pool2); ("4-workers", pool4) ];
          true);
    }

let rec json_equal (a : Obs.Json.t) (b : Obs.Json.t) =
  match (a, b) with
  | Obs.Json.Float x, Obs.Json.Float y ->
      Int64.bits_of_float x = Int64.bits_of_float y
  | Obs.Json.List xs, Obs.Json.List ys ->
      List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Obs.Json.Obj xs, Obs.Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_equal v1 v2)
           xs ys
  | _ -> a = b

let json_roundtrip =
  T
    {
      name = "json-roundtrip";
      doc = "Obs.Json print/parse round-trips bit-exactly (finite floats)";
      gen = Gen.json;
      print = Gen.print_json;
      prop =
        (fun v ->
          let s = Obs.Json.to_string v in
          match Obs.Json.parse s with
          | Error m -> T2.fail_reportf "parse failed on %S: %s" s m
          | Ok v' ->
              if not (json_equal v v') then
                T2.fail_reportf "round-trip changed the value: %S -> %S" s
                  (Obs.Json.to_string v')
              else true);
    }

let pretty_parse =
  T
    {
      name = "pretty-parse";
      doc = "Minic.Pretty output parses back to a structurally equal program";
      gen = Gen.program;
      print = Gen.print_program;
      prop =
        (fun p ->
          checked p;
          let src = Minic.Pretty.to_string p in
          match Minic.Parser.parse src with
          | Error m -> T2.fail_reportf "parse failed: %s" m
          | Ok p' ->
              if p' <> p then
                T2.fail_reportf "round-trip changed the program:@ %s"
                  (Minic.Pretty.to_string p')
              else true);
    }

(* Static-bounds sanitizer: the analysis ({!Minic.Bounds} priced by
   {!Dse.Bounds}) and the cycle-accurate simulator cross-check each
   other — an unsound bound or a mis-charged stall shows up as an
   escape on either side.  Generated programs are trap-free by
   construction ([interp_clean] re-asserts it), which is exactly the
   regime the bounds describe. *)
let bounds_oracle ~name ~core ~print_config ~cycle_model ~run_program gen_config
    =
  T
    {
      name;
      doc =
        Printf.sprintf
          "simulated cycles lie within the static [best, worst] bounds \
           (%s target)"
          core;
      gen = QCheck2.Gen.pair Gen.program gen_config;
      print =
        (fun (p, c) ->
          Printf.sprintf "// config: %s\n%s" (print_config c)
            (Gen.print_program p));
      prop =
        (fun (p, config) ->
          checked p;
          ignore (interp_clean p);
          let lo, hi =
            Dse.Bounds.cycles (cycle_model config) (Minic.Bounds.summary p)
          in
          let r : Sim.Machine.result = run_program config (Minic.Codegen.compile p) in
          let cycles =
            float_of_int r.Sim.Machine.profile.Sim.Profiler.cycles
          in
          if cycles < lo || cycles > hi then
            T2.fail_reportf
              "simulated %.0f cycles outside static bounds [%.0f, %.0f] \
               under %s"
              cycles lo hi (print_config config)
          else true);
    }

let bounds_leon2 =
  bounds_oracle ~name:"bounds-leon2" ~core:"LEON2"
    ~print_config:Gen.print_config ~cycle_model:Dse.Target_leon2.cycle_model
    ~run_program:(fun config prog -> Dse.Target_leon2.run_program config prog)
    Gen.config

let bounds_microblaze =
  bounds_oracle ~name:"bounds-microblaze" ~core:"MicroBlaze"
    ~print_config:Gen.print_mb_config
    ~cycle_model:Dse.Target_microblaze.cycle_model
    ~run_program:(fun config prog ->
      Dse.Target_microblaze.run_program config prog)
    Gen.mb_config

(* ------------------------------------------------------------------ *)
(* Cost-table oracle                                                   *)
(* ------------------------------------------------------------------ *)

(* Accounting identity for the shared per-class cost table: a
   microprogram with [n + 8] instances of one instruction class must
   cost exactly [8 * price(class)] more cycles than the same program
   with [n] instances, once the genuinely configuration-geometry
   dependent dynamics — icache/dcache line fills from the longer code
   footprint, window traps on tiny register files — are corrected for
   with the profiler's own counter deltas.  Deterministic stalls (ICC
   hold, the load-delay interlock, taken redirects, shift/mul/div
   latencies) are NOT corrected: they are part of the class price
   under test, so a table that misprices them fails the identity. *)

let cost_classes :
    (string * (Sim.Cost_model.t -> int) * (Isa.Asm.t -> unit)) list =
  let o0 = Isa.Reg.o 0 in
  let o1 = Isa.Reg.o 1 in
  let o2 = Isa.Reg.o 2 in
  let o3 = Isa.Reg.o 3 in
  let g0 = Isa.Reg.g0 in
  let emit i a = Isa.Asm.emit a i in
  [
    ( "alu",
      Sim.Cost_model.alu_cycles,
      emit (Isa.Insn.Alu { op = Isa.Insn.Add; cc = false; rd = o2; rs1 = o0; op2 = Isa.Insn.Imm 7 }) );
    ( "shift",
      Sim.Cost_model.shift_cycles,
      emit (Isa.Insn.Alu { op = Isa.Insn.Sll; cc = false; rd = o2; rs1 = o0; op2 = Isa.Insn.Imm 3 }) );
    ( "mul",
      Sim.Cost_model.mul_cycles,
      emit (Isa.Insn.Mul { signed = false; cc = false; rd = o2; rs1 = o0; op2 = Isa.Insn.Imm 3 }) );
    ( "div",
      Sim.Cost_model.div_cycles,
      emit (Isa.Insn.Div { signed = false; rd = o2; rs1 = o0; op2 = Isa.Insn.Imm 3 }) );
    ("sethi", (fun _ -> 1), emit (Isa.Insn.Sethi { rd = o2; imm = 0x1234 }));
    ("nop", (fun _ -> 1), emit Isa.Insn.Nop);
    ( "load",
      Sim.Cost_model.load_hit_cycles,
      emit (Isa.Insn.Load { width = Isa.Insn.Word; signed = false; rd = o2; rs1 = o1; op2 = Isa.Insn.Imm 0 }) );
    ( "store",
      Sim.Cost_model.store_cycles,
      emit (Isa.Insn.Store { width = Isa.Insn.Word; rs = o0; rs1 = o1; op2 = Isa.Insn.Imm 0 }) );
    ( "branch-untaken",
      Sim.Cost_model.branch_cycles,
      (* no instruction in the program sets the condition codes, so Eq
         (initial z = 0) never takes and never waits on the hold *)
      fun a ->
        Isa.Asm.emit a
          (Isa.Insn.Branch { cond = Isa.Insn.Eq; target = Isa.Asm.here a + 1 })
    );
    ( "branch-always",
      Sim.Cost_model.ba_cycles,
      fun a ->
        Isa.Asm.emit a
          (Isa.Insn.Branch { cond = Isa.Insn.Always; target = Isa.Asm.here a + 1 }) );
    ( "call",
      Sim.Cost_model.jump_cycles,
      fun a -> Isa.Asm.emit a (Isa.Insn.Call { target = Isa.Asm.here a + 1 }) );
    ( "jmpl",
      Sim.Cost_model.jump_cycles,
      fun a ->
        Isa.Asm.emit a
          (Isa.Insn.Jmpl { rd = g0; rs1 = g0; op2 = Isa.Insn.Imm (Isa.Asm.here a + 1) }) );
    ( "cmp-branch",
      (fun cm ->
        Sim.Cost_model.alu_cycles cm + Sim.Cost_model.cbr_cmp_cycles cm),
      (* subcc %g0,%g0 sets z, bne consumes it untaken — one ICC-hold
         stall per pair exactly when the table says icc_stall = 1 *)
      fun a ->
        Isa.Asm.emit a
          (Isa.Insn.Alu { op = Isa.Insn.Sub; cc = true; rd = g0; rs1 = g0; op2 = Isa.Insn.Reg g0 });
        Isa.Asm.emit a
          (Isa.Insn.Branch { cond = Isa.Insn.Ne; target = Isa.Asm.here a + 1 })
    );
    ( "load-interlock",
      (fun cm ->
        Sim.Cost_model.load_hit_cycles cm
        + cm.Sim.Cost_model.interlock
        + Sim.Cost_model.alu_cycles cm),
      fun a ->
        Isa.Asm.emit a
          (Isa.Insn.Load { width = Isa.Insn.Word; signed = false; rd = o2; rs1 = o1; op2 = Isa.Insn.Imm 0 });
        Isa.Asm.emit a
          (Isa.Insn.Alu { op = Isa.Insn.Add; cc = false; rd = o3; rs1 = o2; op2 = Isa.Insn.Imm 0 }) );
    ( "save-restore",
      (fun cm ->
        Sim.Cost_model.save_cycles cm + Sim.Cost_model.restore_cycles cm),
      fun a ->
        Isa.Asm.emit a
          (Isa.Insn.Save { rd = Isa.Reg.sp; rs1 = Isa.Reg.sp; op2 = Isa.Insn.Imm (-96) });
        Isa.Asm.emit a
          (Isa.Insn.Restore { rd = g0; rs1 = g0; op2 = Isa.Insn.Imm 0 }) );
  ]

let cost_program ~instances body =
  let a = Isa.Asm.create () in
  let buf = Isa.Asm.data_zero a ~name:"buf" 64 in
  Isa.Asm.set32 a buf (Isa.Reg.o 1);
  Isa.Asm.set32 a 12345 (Isa.Reg.o 0);
  for _ = 1 to instances do
    body a
  done;
  Isa.Asm.emit a Isa.Insn.Halt;
  Isa.Asm.finish a ~entry:0

let cost_table_oracle ~name ~core ~print_config ~cycle_model ~run_program
    gen_config =
  T
    {
      name;
      doc =
        Printf.sprintf
          "the shared cost table prices every instruction class exactly as \
           the simulator charges it (%s target)"
          core;
      gen = gen_config;
      print = print_config;
      prop =
        (fun config ->
          let cm : Sim.Cost_model.t = cycle_model config in
          let profile_of n body =
            let r : Sim.Machine.result = run_program config (cost_program ~instances:n body) in
            r.Sim.Machine.profile
          in
          List.iter
            (fun (cls, price, body) ->
              let p1 = profile_of 11 body in
              let p2 = profile_of 19 body in
              let d f = f p2 - f p1 in
              let dynamic =
                (d (fun p -> p.Sim.Profiler.icache_misses)
                * cm.Sim.Cost_model.iline_fill)
                + d (fun p -> p.Sim.Profiler.dcache_read_misses)
                  * cm.Sim.Cost_model.dline_fill
                + d (fun p -> p.Sim.Profiler.window_overflows)
                  * (Sim.Cost_model.trap_overhead
                    + (Sim.Cost_model.window_regs * Sim.Cost_model.store_cycles cm))
                + d (fun p -> p.Sim.Profiler.window_underflows)
                  * (Sim.Cost_model.trap_overhead
                    + (Sim.Cost_model.window_regs * Sim.Cost_model.load_hit_cycles cm))
              in
              let observed = d (fun p -> p.Sim.Profiler.cycles) - dynamic in
              let expected = 8 * price cm in
              if observed <> expected then
                T2.fail_reportf
                  "class %s: observed %d cycles per 8 instances, table \
                   prices %d under %s"
                  cls observed expected (print_config config))
            cost_classes;
          true);
    }

let cpu_cost_table_leon2 =
  cost_table_oracle ~name:"cpu-cost-table-leon2" ~core:"LEON2"
    ~print_config:Gen.print_config ~cycle_model:Dse.Target_leon2.cycle_model
    ~run_program:(fun config prog -> Dse.Target_leon2.run_program config prog)
    Gen.config

let cpu_cost_table_microblaze =
  cost_table_oracle ~name:"cpu-cost-table-microblaze" ~core:"MicroBlaze"
    ~print_config:Gen.print_mb_config
    ~cycle_model:Dse.Target_microblaze.cycle_model
    ~run_program:(fun config prog ->
      Dse.Target_microblaze.run_program config prog)
    Gen.mb_config

(* Journal instants in the per-domain trace buffers under real pool
   concurrency: every recorded event must survive the merge (none
   lost, none duplicated), carry well-formed serializable fields, and
   each domain's journal instants must be monotonically timestamped —
   the invariants the explain reports rely on. *)
let journal_pool =
  T
    {
      name = "journal-pool";
      doc =
        "journal events recorded from pool workers are complete, \
         well-formed and per-domain monotone";
      gen =
        QCheck2.Gen.(list_size (int_range 0 12) (int_range 0 5));
      print =
        (fun counts ->
          Printf.sprintf "[%s]"
            (String.concat "; " (List.map string_of_int counts)));
      prop =
        (fun counts ->
          Obs.Journal.set_enabled true;
          Obs.Journal.clear ();
          Fun.protect ~finally:(fun () ->
              Obs.Journal.set_enabled false;
              Obs.Journal.clear ())
          @@ fun () ->
          let task idx n =
            for k = 0 to n - 1 do
              Obs.Journal.record ~kind:"fuzz.tick"
                [ ("idx", Obs.Json.Int idx); ("k", Obs.Json.Int k) ]
            done;
            n
          in
          let indexed = List.mapi (fun i n -> (i, n)) counts in
          let returned =
            Dse.Pool.map (Dse.Pool.default ()) (fun (i, n) -> task i n) indexed
          in
          if returned <> List.map snd indexed then
            T2.fail_reportf "pool map reordered or lost results";
          let events =
            List.filter
              (fun (e : Obs.Trace.event) -> e.Obs.Trace.name = "fuzz.tick")
              (Obs.Journal.events ())
          in
          let expected = List.fold_left ( + ) 0 counts in
          if List.length events <> expected then
            T2.fail_reportf "recorded %d events, expected %d"
              (List.length events) expected;
          List.iter
            (fun (e : Obs.Trace.event) ->
              if e.Obs.Trace.ts_ns < 0L then
                T2.fail_reportf "negative timestamp";
              if e.Obs.Trace.name = "" then T2.fail_reportf "empty kind";
              if e.Obs.Trace.ph <> Obs.Trace.Instant then
                T2.fail_reportf "journal event is not an instant";
              ignore (Obs.Json.to_string (Obs.Json.Obj e.Obs.Trace.args)))
            events;
          List.iter
            (fun (tid, evs) ->
              let rec monotone = function
                | (a : Obs.Trace.event) :: (b : Obs.Trace.event) :: rest ->
                    if Int64.compare a.Obs.Trace.ts_ns b.Obs.Trace.ts_ns > 0
                    then
                      T2.fail_reportf
                        "domain %d journal not monotonically timestamped" tid;
                    monotone (b :: rest)
                | _ -> ()
              in
              monotone
                (List.filter
                   (fun (e : Obs.Trace.event) -> e.Obs.Trace.cat = "journal")
                   evs))
            (Obs.Trace.events_by_domain ());
          true);
    }

(* Phase-schedule dominance: the scheduled optimum can always replicate
   any static selection uniformly across phases, so its objective is <=
   the static optimum's on the phase-summed model — with the switch
   cost forced to zero (the schedule problem solved without its switch
   terms), and equal to it with one phase, where the schedule is the
   static problem; and with the real switch terms, since a uniform
   selection pays exactly zero switch cost (each pair of phases' terms
   cancel exactly).  The switch-term solve must also pick the same
   winner, objective bits included, as brute-force enumeration.
   Exercises the slot layout, per-phase SOS1 groups, per-phase resource
   constraints and switch product terms of [Formulate.make_schedule]
   against [Formulate.make] over the real LEON2 variable space with
   synthetic per-phase runtime deltas. *)
module SL = Dse.Leon2.S

let schedule_dominance =
  let module L = Dse.Target_leon2 in
  let synth_base =
    {
      Dse.Cost.seconds = 1.0;
      resources =
        { Synth.Resource.luts = L.device_luts / 2; brams = L.device_brams / 2 };
    }
  in
  let gen =
    let open QCheck2.Gen in
    let* nphases = int_range 1 3 in
    let* reps = int_range 1 3 in
    let* nrows = int_range 2 (min 6 (List.length L.vars)) in
    let+ rows =
      list_repeat nrows
        (triple
           (list_repeat nphases (float_range (-20.) 20.))
           (float_range (-3.) 3.) (float_range (-3.) 3.))
    in
    (nphases, reps, rows)
  in
  let print (nphases, reps, rows) =
    Printf.sprintf "phases=%d reps=%d\n%s" nphases reps
      (String.concat "\n"
         (List.mapi
            (fun i (rhos, lam, bet) ->
              Printf.sprintf "  row %d: rho=[%s] lambda=%.3f beta=%.3f" i
                (String.concat "; " (List.map (Printf.sprintf "%.3f") rhos))
                lam bet)
            rows))
  in
  T
    {
      name = "schedule-dominance";
      doc =
        "the scheduled optimum, with zero or with real switch cost, is never \
         worse than the static optimum on the phase-summed model, and equal \
         with one phase; with switch cost it matches brute force";
      gen;
      print;
      prop =
        (fun (nphases, reps, rows) ->
          let vars = List.filteri (fun i _ -> i < List.length rows) L.vars in
          let weights = Dse.Cost.runtime_weights in
          let row_of v rho lam bet =
            {
              SL.Measure.var = v;
              config = v.L.apply L.base;
              cost = synth_base;
              deltas = { Dse.Cost.rho; lambda = lam; beta = bet };
            }
          in
          let app = Apps.Registry.blastn in
          let phase_model p =
            SL.Measure.model_of app ~base:synth_base
              (List.map2
                 (fun v (rhos, lam, bet) -> row_of v (List.nth rhos p) lam bet)
                 vars rows)
          in
          let models = List.init nphases phase_model in
          let summed =
            SL.Measure.model_of app ~base:synth_base
              (List.map2
                 (fun v (rhos, lam, bet) ->
                   row_of v (List.fold_left ( +. ) 0.0 rhos) lam bet)
                 vars rows)
          in
          let sched = SL.Formulate.make_schedule ~reps ~weights models in
          let static_prob = SL.Formulate.make weights summed in
          let s = Optim.Binlp.solve ~node_limit:2_000_000 static_prob in
          let d =
            Optim.Binlp.solve ~node_limit:2_000_000
              sched.SL.Formulate.problem
          in
          let objective_terms = sched.SL.Formulate.switch_terms in
          let w =
            Optim.Binlp.solve ~node_limit:2_000_000 ~objective_terms
              sched.SL.Formulate.problem
          in
          if w.Optim.Binlp.status <> Optim.Binlp.Optimal then
            T2.fail_reportf "switch-term solve hit the node limit";
          (match
             ( w.Optim.Binlp.best,
               Optim.Binlp.brute_force ~objective_terms
                 sched.SL.Formulate.problem )
           with
          | None, None -> ()
          | Some a, Some b ->
              if
                a.Optim.Binlp.x <> b.Optim.Binlp.x
                || Int64.bits_of_float a.Optim.Binlp.objective
                   <> Int64.bits_of_float b.Optim.Binlp.objective
              then
                T2.fail_reportf
                  "switch-term solve picked objective %.17g, brute force %.17g \
                   (same point: %b)"
                  a.Optim.Binlp.objective b.Optim.Binlp.objective
                  (a.Optim.Binlp.x = b.Optim.Binlp.x)
          | Some _, None | None, Some _ ->
              T2.fail_reportf
                "switch-term solve and brute force disagree on feasibility");
          (match (s.Optim.Binlp.best, w.Optim.Binlp.best) with
          | None, _ -> ()
          | Some _, None ->
              T2.fail_reportf
                "switch-term schedule infeasible while static is feasible"
          | Some st, Some sw ->
              if sw.Optim.Binlp.objective > st.Optim.Binlp.objective +. 1e-6
              then
                T2.fail_reportf
                  "switch-term scheduled optimum %.9f > static optimum %.9f"
                  sw.Optim.Binlp.objective st.Optim.Binlp.objective);
          match (s.Optim.Binlp.best, d.Optim.Binlp.best) with
          | None, None -> true
          | None, Some _ ->
              (* The empty selection is always schedule-feasible when it
                 is static-feasible and vice versa: both sides must
                 agree on feasibility. *)
              T2.fail_reportf
                "schedule found a point on a static-infeasible instance"
          | Some _, None ->
              T2.fail_reportf
                "schedule problem infeasible while static is feasible"
          | Some st, Some sc ->
              if
                sc.Optim.Binlp.objective
                > st.Optim.Binlp.objective +. 1e-6
              then
                T2.fail_reportf "scheduled optimum %.9f > static optimum %.9f"
                  sc.Optim.Binlp.objective st.Optim.Binlp.objective
              else if
                nphases = 1
                && sc.Optim.Binlp.objective <> st.Optim.Binlp.objective
              then
                T2.fail_reportf "one phase: scheduled optimum %.17g <> static \
                                 optimum %.17g"
                  sc.Optim.Binlp.objective st.Optim.Binlp.objective
              else true);
    }

(* Change-point detection must be a pure function of (options, config,
   program): repeated detections — including detections executed on
   pool worker domains of different counts — agree bit-for-bit on the
   segmentation, and the segmentation is a partition of the retired
   instruction stream. *)
let phase_determinism =
  T
    {
      name = "phase-determinism";
      doc =
        "windowed change-point detection is deterministic across repeated \
         runs and pool worker counts, and partitions the instruction stream";
      gen = Gen.program;
      print = Gen.print_program;
      prop =
        (fun p ->
          checked p;
          let prog = Minic.Codegen.compile p in
          let options =
            {
              Sim.Phase.default_options with
              Sim.Phase.window = 256;
              min_windows = 2;
              max_phases = 6;
            }
          in
          let detect () =
            Sim.Phase.detect ~options Arch.Config.base prog
          in
          let reference = detect () in
          let want = Sim.Phase.digest reference in
          if Sim.Phase.digest (detect ()) <> want then
            T2.fail_reportf "repeated detection disagrees";
          with_par_pools (fun pool2 pool4 ->
          List.iter
            (fun (label, pool) ->
              List.iter
                (fun d ->
                  if Sim.Phase.digest d <> want then
                    T2.fail_reportf "detection under %s pool disagrees" label)
                (Dse.Pool.map pool (fun () -> detect ()) [ (); () ]))
            [ ("2-worker", pool2); ("4-worker", pool4) ]);
          let total = reference.Sim.Phase.total_insns in
          let rec partitions pos = function
            | [] -> T2.fail_reportf "no phases"
            | [ (last : Sim.Phase.phase) ] ->
                last.Sim.Phase.start_insn = pos
                && last.Sim.Phase.end_insn = total
                || T2.fail_reportf "last phase does not close the partition"
            | (ph : Sim.Phase.phase) :: rest ->
                (ph.Sim.Phase.start_insn = pos
                 && ph.Sim.Phase.end_insn > ph.Sim.Phase.start_insn
                || T2.fail_reportf "phase [%d, %d) does not continue at %d"
                     ph.Sim.Phase.start_insn ph.Sim.Phase.end_insn pos)
                && partitions ph.Sim.Phase.end_insn rest
          in
          partitions 0 reference.Sim.Phase.phases);
    }

(* A segmented run carves one execution at instruction boundaries
   without changing it: its whole-run result must equal the plain
   run's structurally — the identity that lets one recording answer a
   configuration's whole run and its segments alike — and its phase
   profiles must sum to the whole profile.  Boundaries are
   drawn as per-mille cuts of the run's per-execution instruction
   count, so they always fall inside it. *)
let segmented_matches (type c)
    (module T : Dse.Target.S with type config = c) (config : c) ~cuts app =
  let plain = T.run_app ~config app in
  let whole = plain.Sim.Machine.profile in
  let insns = whole.Sim.Profiler.instructions / app.Apps.Registry.reps in
  let boundaries =
    List.filter
      (fun b -> b > 0 && b < insns)
      (List.sort_uniq compare (List.map (fun c -> c * insns / 1000) cuts))
  in
  let seg = T.run_app_segmented ~config ~boundaries app in
  let at = String.concat "; " (List.map string_of_int boundaries) in
  let r = seg.Sim.Machine.result in
  if r <> plain then
    T2.fail_reportf
      "%s: segmented result at [%s] differs from the plain run (cycles %d vs \
       %d, checksum %d vs %d)"
      T.name at r.Sim.Machine.profile.Sim.Profiler.cycles
      whole.Sim.Profiler.cycles r.Sim.Machine.checksum plain.Sim.Machine.checksum;
  let phases = seg.Sim.Machine.phase_profiles in
  if List.length phases <> List.length boundaries + 1 then
    T2.fail_reportf "%s: %d phase profiles for %d boundaries" T.name
      (List.length phases) (List.length boundaries);
  let summed =
    List.fold_left Sim.Profiler.add (Sim.Profiler.create ()) phases
  in
  List.iter2
    (fun (field, w) (_, s) ->
      if w <> s then
        T2.fail_reportf "%s: phase profiles at [%s] sum %s = %d, whole run %d"
          T.name at field s w)
    (Sim.Profiler.to_assoc whole)
    (Sim.Profiler.to_assoc summed);
  true

let segmented_vs_plain =
  let gen =
    let open QCheck2.Gen in
    let* p = Gen.program in
    let* leon2 = Gen.config in
    let* mb = Gen.mb_config in
    let* reps = int_range 1 3 in
    let+ cuts = list_size (int_range 0 3) (int_range 1 999) in
    (p, leon2, mb, reps, cuts)
  in
  T
    {
      name = "segmented-vs-plain";
      doc =
        "a segmented run's result equals the plain run's and its phase \
         profiles sum to the whole profile (LEON2 and MicroBlaze)";
      gen;
      print =
        (fun (p, leon2, mb, reps, cuts) ->
          Printf.sprintf
            "// leon2: %s\n// microblaze: %s\n// reps: %d, cuts (per mille \
             of the run): [%s]\n%s"
            (Gen.print_config leon2) (Gen.print_mb_config mb) reps
            (String.concat "; " (List.map string_of_int cuts))
            (Gen.print_program p));
      prop =
        (fun (p, leon2, mb, reps, cuts) ->
          checked p;
          let app =
            {
              Apps.Registry.name = "fuzz";
              description = "generated program";
              source = p;
              program = Lazy.from_val (Minic.Codegen.compile p);
              reps;
              paper_base_seconds = Float.nan;
            }
          in
          segmented_matches (module Dse.Target_leon2) leon2 ~cuts app
          && segmented_matches (module Dse.Target_microblaze) mb ~cuts app);
    }

(* The engine answers every evaluation from its execution class's
   recording, with the configuration's caches replayed and its stall
   prices applied, so each answer must equal the simulation field for
   field, on a fresh engine: the whole run ([eval_profiled_on]), and
   each segment ([segments_on]) with the seconds of their sum.  Returns
   the simulated profile. *)
let engine_matches (type c) (module T : Dse.Target.S with type config = c)
    engine (config : c) ~cuts app =
  let at = T.to_string config in
  let same what (engine : Sim.Profiler.t) (simulated : Sim.Profiler.t) =
    List.iter2
      (fun (field, a) (_, b) ->
        if a <> b then
          T2.fail_reportf "%s: %s %s = %d from the engine, %d simulated" T.name
            what field a b)
      (Sim.Profiler.to_assoc engine)
      (Sim.Profiler.to_assoc simulated)
  in
  let same_seconds what a b =
    if Int64.bits_of_float a <> Int64.bits_of_float b then
      T2.fail_reportf "%s: %s seconds %h from the engine, %h simulated" T.name
        what a b
  in
  let seconds, profile = T.probe.Dse.Target.simulate app config in
  let cost, priced = Dse.Engine.eval_profiled_on engine T.probe app config in
  same_seconds at cost.Dse.Cost.seconds seconds;
  same at priced profile;
  (* segments are unions of windows: the cuts fall on window marks *)
  let insns = profile.Sim.Profiler.instructions / app.Apps.Registry.reps in
  let window = max 1 (insns / 16) in
  let boundaries =
    List.filter
      (fun b -> b > 0 && b < insns)
      (List.sort_uniq compare
         (List.map (fun c -> c * insns / 1000 / window * window) cuts))
  in
  let simulated = T.run_app_segmented ~config ~boundaries app in
  let seconds = Sim.Machine.seconds simulated.Sim.Machine.result in
  let whole = simulated.Sim.Machine.result.Sim.Machine.profile in
  let phases = simulated.Sim.Machine.phase_profiles in
  let at =
    Printf.sprintf "%s segmented at [%s]" at
      (String.concat "," (List.map string_of_int boundaries))
  in
  (match
     Dse.Engine.segments_on engine T.probe app ~window ~boundaries [ config ]
   with
  | [ segments ] ->
      let summed =
        List.fold_left Sim.Profiler.add (Sim.Profiler.create ()) segments
      in
      same_seconds at (Sim.Machine.profile_seconds summed) seconds;
      same at summed whole;
      if List.length segments <> List.length phases then
        T2.fail_reportf "%s: %d segments from the engine, %d simulated" at
          (List.length segments) (List.length phases);
      List.iteri
        (fun k (e, s) -> same (Printf.sprintf "%s phase %d" at k) e s)
        (List.combine segments phases)
  | _ -> T2.fail_reportf "%s: one segmented answer expected" at);
  profile

(* [p] entered through a recursion [depth] calls deep that loads,
   stores and reloads one line of the global array around each call:
   past the window count the calls spill and fill windows through the
   dcache between accesses to that line, so the window-trap and MRU
   rules of a replay are both on the line. *)
let with_recursion (p : Minic.Ast.program) ~depth =
  let open Minic.Ast in
  let slot e = Bin (And, e, Int 15) in
  let deep =
    {
      name = "deep";
      params = [ "n" ];
      locals = [ "x"; "y" ];
      body =
        [
          Set ("x", Idx ("arr", slot (Var "n")));
          If
            ( Bin (Gt, Var "n", Int 0),
              [ Set ("y", Call ("deep", [ Bin (Sub, Var "n", Int 1) ])) ],
              [ Set ("y", Int 0) ] );
          Set_idx ("arr", slot (Var "n"), Bin (Add, Var "x", Var "y"));
          Ret (Bin (Add, Var "x", Idx ("arr", slot (Bin (Add, Var "n", Int 1)))));
        ];
    }
  in
  let enter (f : func) =
    if String.equal f.name "main" then
      { f with body = Do (Call ("deep", [ Int depth ])) :: f.body }
    else f
  in
  { p with funcs = deep :: List.map enter p.funcs }

(* Up to 11 nested calls trap at 8 windows and never at 16, so the
   LEON2 class walk takes at most two steps. *)
let engine_vs_simulated =
  let gen =
    let open QCheck2.Gen in
    let* p = Gen.program in
    let* depth = int_range 0 11 in
    let p = with_recursion p ~depth in
    let* leon2 = Gen.config in
    let* mb = Gen.mb_config in
    let* reps = int_range 1 3 in
    let* larger = int_range 0 16 in
    let+ cuts = list_size (int_range 0 3) (int_range 1 999) in
    (p, leon2, mb, reps, larger, cuts)
  in
  T
    {
      name = "engine-vs-simulated";
      doc =
        "the engine's whole-run and segmented answers, replayed from an \
         execution class's recording and priced, equal the simulation \
         (LEON2 and MicroBlaze)";
      gen;
      print =
        (fun (p, leon2, mb, reps, larger, cuts) ->
          Printf.sprintf
            "// leon2: %s\n// microblaze: %s\n// reps: %d, larger count \
             index: %d, cuts (per mille of the run): [%s]\n%s"
            (Gen.print_config leon2) (Gen.print_mb_config mb) reps larger
            (String.concat "; " (List.map string_of_int cuts))
            (Gen.print_program p));
      prop =
        (fun (p, leon2, mb, reps, larger, cuts) ->
          checked p;
          let app =
            {
              Apps.Registry.name = "fuzz";
              description = "generated program";
              source = p;
              program = Lazy.from_val (Minic.Codegen.compile p);
              reps;
              paper_base_seconds = Float.nan;
            }
          in
          let engine = Dse.Engine.create () in
          let prof =
            engine_matches (module Dse.Target_leon2) engine leon2 ~cuts app
          in
          (* the window case: a trap-free run at count w priced for a
             larger count *)
          let w = leon2.Arch.Config.iu.Arch.Config.reg_windows in
          (match List.filter (fun n -> n > w) Arch.Config.valid_reg_windows with
          | counts
            when counts <> []
                 && prof.Sim.Profiler.window_overflows = 0
                 && prof.Sim.Profiler.window_underflows = 0 ->
              let n = List.nth counts (larger mod List.length counts) in
              ignore
                (engine_matches (module Dse.Target_leon2) engine
                   {
                     leon2 with
                     Arch.Config.iu =
                       { leon2.Arch.Config.iu with Arch.Config.reg_windows = n };
                   }
                   ~cuts app)
          | _ -> ());
          ignore
            (engine_matches (module Dse.Target_microblaze) engine mb ~cuts app);
          true);
    }

(* One recording answers what the pipeline asks of its class, each by
   a shortcut: a captured run replays its warm epoch instead of
   simulating it, the engine detects phases from the recording's
   windows (summed into coarser ones), and a schedule is verified by
   replaying it.  Each must equal the simulation field for field. *)
let recording_matches (type c) (module T : Dse.Target.S with type config = c)
    (config : c) (other : c) ~window ~k app =
  let fail fmt = T2.fail_reportf ("%s: " ^^ fmt) T.name in
  let same what (a : Sim.Profiler.t) (b : Sim.Profiler.t) =
    List.iter2
      (fun (field, x) (_, y) ->
        if x <> y then fail "%s: %s = %d from the recording, %d simulated" what field x y)
      (Sim.Profiler.to_assoc a) (Sim.Profiler.to_assoc b)
  in
  let same_result what (a : Sim.Machine.result) (b : Sim.Machine.result) =
    same what a.Sim.Machine.profile b.Sim.Machine.profile;
    if a.Sim.Machine.cold_cycles <> b.Sim.Machine.cold_cycles
       || a.Sim.Machine.warm_cycles <> b.Sim.Machine.warm_cycles
       || a.Sim.Machine.checksum <> b.Sim.Machine.checksum
    then
      fail "%s: cold/warm cycles %d/%d, checksum %d from the recording; %d/%d, %d simulated"
        what a.Sim.Machine.cold_cycles a.Sim.Machine.warm_cycles
        a.Sim.Machine.checksum b.Sim.Machine.cold_cycles
        b.Sim.Machine.warm_cycles b.Sim.Machine.checksum
  in
  (* a captured run: the cold epoch simulated, the warm one replayed *)
  let plain = T.run_app ~config app in
  let captured, _ = Sim.Recording.capture ~window (fun () -> T.run_app ~config app) in
  same_result "captured run" captured plain;
  let seconds, profile = T.probe.Dse.Target.simulate app config in
  let (seconds', profile'), _ =
    Sim.Recording.capture ~window (fun () -> T.probe.Dse.Target.simulate app config)
  in
  if Int64.bits_of_float seconds <> Int64.bits_of_float seconds' then
    fail "captured probe.simulate: %h seconds, %h outside" seconds' seconds;
  same "captured probe.simulate" profile' profile;
  (* detection from the engine's recording, at its window and at [k]
     windows per observation *)
  let engine = Dse.Engine.create () in
  let detect window =
    let options =
      { Sim.Phase.default_options with Sim.Phase.window; min_windows = 2; max_phases = 6 }
    in
    let recorded =
      Sim.Phase.split options (Dse.Engine.windows_on engine T.probe app ~window T.base)
    in
    let simulated = T.detect_phases ~options app in
    if recorded <> simulated then
      fail "window %d: detection from the recording (%d phases, %s) differs from \
            Sim.Phase.detect (%d phases, %s)"
        window (Sim.Phase.count recorded) (Sim.Phase.digest recorded)
        (Sim.Phase.count simulated) (Sim.Phase.digest simulated);
    simulated
  in
  let phases = detect window in
  ignore (detect (k * window));
  (* a schedule alternating the two configurations at window marks *)
  let boundaries =
    match Sim.Phase.boundaries phases with
    | [] -> if window < phases.Sim.Phase.total_insns then [ window ] else []
    | bs -> bs
  in
  let schedule =
    List.mapi (fun i b -> (b, if i mod 2 = 0 then config else other)) (0 :: boundaries)
  in
  let replayed =
    T.replay_app_phased ~schedule
      (Dse.Engine.recording_on engine T.probe app ~window (List.map snd schedule))
  in
  let simulated = T.run_app_phased ~schedule app in
  same_result "replayed schedule" replayed.Sim.Machine.result
    simulated.Sim.Machine.result;
  if replayed.Sim.Machine.switch_cycles <> simulated.Sim.Machine.switch_cycles then
    fail "replayed schedule: %d switch cycles, %d simulated"
      replayed.Sim.Machine.switch_cycles simulated.Sim.Machine.switch_cycles;
  List.iteri
    (fun i (a, b) -> same (Printf.sprintf "replayed schedule phase %d" i) a b)
    (List.combine replayed.Sim.Machine.phase_profiles
       simulated.Sim.Machine.phase_profiles)

let recording_vs_simulated =
  let gen =
    let open QCheck2.Gen in
    let* p = Gen.program in
    let* depth = int_range 0 11 in
    let p = with_recursion p ~depth in
    let* leon2 = Gen.config in
    let* leon2' = Gen.config in
    let* mb = Gen.mb_config in
    let* mb' = Gen.mb_config in
    let* reps = int_range 1 3 in
    let* window = int_range 16 512 in
    let+ k = int_range 1 4 in
    (p, (leon2, leon2', mb, mb'), reps, window, k)
  in
  T
    {
      name = "recording-vs-simulated";
      doc =
        "a captured run's replayed warm epoch, phase detection from the \
         engine's recording and a replayed schedule equal simulation (LEON2 \
         and MicroBlaze)";
      gen;
      print =
        (fun (p, (leon2, leon2', mb, mb'), reps, window, k) ->
          Printf.sprintf
            "// leon2: %s | %s\n// microblaze: %s | %s\n// reps: %d, window: \
             %d, coarse windows: %d\n%s"
            (Gen.print_config leon2) (Gen.print_config leon2')
            (Gen.print_mb_config mb) (Gen.print_mb_config mb') reps window k
            (Gen.print_program p));
      prop =
        (fun (p, (leon2, leon2', mb, mb'), reps, window, k) ->
          checked p;
          let app =
            {
              Apps.Registry.name = "fuzz";
              description = "generated program";
              source = p;
              program = Lazy.from_val (Minic.Codegen.compile p);
              reps;
              paper_base_seconds = Float.nan;
            }
          in
          (* a schedule's configurations share the register-window
             count, which cannot switch at runtime *)
          let leon2' =
            {
              leon2' with
              Arch.Config.iu =
                {
                  leon2'.Arch.Config.iu with
                  Arch.Config.reg_windows = leon2.Arch.Config.iu.Arch.Config.reg_windows;
                };
            }
          in
          recording_matches (module Dse.Target_leon2) leon2 leon2' ~window ~k app;
          recording_matches (module Dse.Target_microblaze) mb mb' ~window ~k app;
          true);
    }

let all =
  [
    interp_vs_sim;
    optimize_preserves;
    lint_sound;
    codec_roundtrip;
    mb_codec_roundtrip;
    binlp_exact;
    binlp_par;
    json_roundtrip;
    pretty_parse;
    bounds_leon2;
    bounds_microblaze;
    cpu_cost_table_leon2;
    cpu_cost_table_microblaze;
    journal_pool;
    schedule_dominance;
    phase_determinism;
    segmented_vs_plain;
    engine_vs_simulated;
    recording_vs_simulated;
  ]

let find n = List.find_opt (fun o -> name o = n) all

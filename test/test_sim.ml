(* Tests for the processor simulator: caches, memory, CPU semantics and
   cycle accounting. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let base = Arch.Config.base

let with_iu f = { base with Arch.Config.iu = f base.Arch.Config.iu }

(* --- Memory --- *)

let test_memory_rw () =
  let m = Sim.Memory.create ~size:4096 in
  Sim.Memory.write_u32 m 0 0xDEADBEEF;
  check_int "u32 roundtrip" 0xDEADBEEF (Sim.Memory.read_u32 m 0);
  check_int "little endian byte 0" 0xEF (Sim.Memory.read_u8 m 0);
  check_int "little endian byte 3" 0xDE (Sim.Memory.read_u8 m 3);
  check_int "halfword low" 0xBEEF (Sim.Memory.read_u16 m 0);
  Sim.Memory.write_u8 m 10 0x7F;
  check_int "u8 roundtrip" 0x7F (Sim.Memory.read_u8 m 10);
  Sim.Memory.write_u16 m 12 0xABCD;
  check_int "u16 roundtrip" 0xABCD (Sim.Memory.read_u16 m 12)

let test_memory_faults () =
  let m = Sim.Memory.create ~size:64 in
  let expect_fault f =
    match f () with
    | exception Sim.Memory.Fault _ -> ()
    | _ -> Alcotest.fail "expected fault"
  in
  expect_fault (fun () -> Sim.Memory.read_u32 m 62);
  expect_fault (fun () -> Sim.Memory.read_u32 m 2);
  expect_fault (fun () -> Sim.Memory.read_u16 m 1);
  expect_fault (fun () -> Sim.Memory.read_u8 m 64);
  expect_fault (fun () -> Sim.Memory.read_u8 m (-1))

let test_line_fill_cycles () =
  check_int "8-word fill" 13 (Sim.Memory.line_fill_cycles ~line_words:8);
  check_int "4-word fill" 9 (Sim.Memory.line_fill_cycles ~line_words:4)

(* --- Cache --- *)

let mk_cache ?(ways = 1) ?(way_kb = 1) ?(line_words = 4) ?(repl = Arch.Config.Random) () =
  Sim.Cache.create ~ways ~way_kb ~line_words ~replacement:repl
    ~rng:(Sim.Rng.create ~seed:7)

let test_cache_geometry () =
  let c = mk_cache ~way_kb:4 ~line_words:8 () in
  check_int "line bytes" 32 (Sim.Cache.line_bytes c);
  check_int "sets" 128 (Sim.Cache.sets c)

let test_cold_miss_then_hit () =
  let c = mk_cache () in
  check_bool "first access misses" false (Sim.Cache.read c 0x100);
  check_bool "second access hits" true (Sim.Cache.read c 0x100);
  check_bool "same line hits" true (Sim.Cache.read c 0x10C);
  check_bool "next line misses" false (Sim.Cache.read c 0x110);
  let s = Sim.Cache.stats c in
  check_int "reads" 4 s.Sim.Cache.reads;
  check_int "read misses" 2 s.Sim.Cache.read_misses

let test_direct_mapped_conflict () =
  (* 1 KB direct-mapped, 16-byte lines: addresses 1 KB apart conflict. *)
  let c = mk_cache () in
  ignore (Sim.Cache.read c 0);
  ignore (Sim.Cache.read c 1024);
  check_bool "conflict evicted the first line" false (Sim.Cache.read c 0)

let test_two_way_no_conflict () =
  let c = mk_cache ~ways:2 ~repl:Arch.Config.Lru () in
  ignore (Sim.Cache.read c 0);
  ignore (Sim.Cache.read c 1024);
  check_bool "2-way holds both lines" true (Sim.Cache.read c 0);
  check_bool "and the second too" true (Sim.Cache.read c 1024)

let test_lru_eviction_order () =
  let c = mk_cache ~ways:2 ~repl:Arch.Config.Lru () in
  ignore (Sim.Cache.read c 0);      (* A *)
  ignore (Sim.Cache.read c 1024);   (* B *)
  ignore (Sim.Cache.read c 0);      (* touch A: B is now LRU *)
  ignore (Sim.Cache.read c 2048);   (* C evicts B *)
  check_bool "A survives" true (Sim.Cache.read c 0);
  check_bool "B was evicted" false (Sim.Cache.read c 1024)

let test_lrr_round_robin () =
  (* LRR (FIFO) ignores recency: the oldest *fill* is replaced. *)
  let c = mk_cache ~ways:2 ~repl:Arch.Config.Lrr () in
  ignore (Sim.Cache.read c 0);      (* A -> way 0 *)
  ignore (Sim.Cache.read c 1024);   (* B -> way 1 *)
  ignore (Sim.Cache.read c 0);      (* touch A; irrelevant to LRR *)
  ignore (Sim.Cache.read c 2048);   (* C replaces A (oldest fill) *)
  check_bool "A was evicted despite recent use" false (Sim.Cache.read c 0)

let test_write_no_allocate () =
  let c = mk_cache () in
  check_bool "write miss" false (Sim.Cache.write c 0x200);
  check_bool "read still misses (no allocate)" false (Sim.Cache.read c 0x200);
  check_bool "write after fill hits" true (Sim.Cache.write c 0x200);
  let s = Sim.Cache.stats c in
  check_int "writes" 2 s.Sim.Cache.writes;
  check_int "write misses" 1 s.Sim.Cache.write_misses

let test_fills_equal_misses_qcheck () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"read misses never exceed reads"
       QCheck.(pair (int_bound 3) (list (int_bound 0xFFFF)))
       (fun (geom, addrs) ->
         let ways = 1 + geom in
         let c = mk_cache ~ways ~repl:Arch.Config.Lru () in
         List.iter (fun a -> ignore (Sim.Cache.read c (a land lnot 3))) addrs;
         let s = Sim.Cache.stats c in
         s.Sim.Cache.read_misses <= s.Sim.Cache.reads
         && s.Sim.Cache.reads = List.length addrs))

let test_lru_capacity_property () =
  (* With LRU, re-reading a working set no larger than one way of the
     cache yields no further misses after the first pass. *)
  let c = mk_cache ~way_kb:1 ~line_words:4 ~repl:Arch.Config.Random () in
  for pass = 1 to 3 do
    for a = 0 to 63 do
      ignore (Sim.Cache.read c (a * 16))
    done;
    if pass > 1 then
      check_int "steady state: only cold misses" 64
        (Sim.Cache.stats c).Sim.Cache.read_misses
  done

let test_single_set_fully_assoc () =
  (* way_kb 1 with 256-word (1 KB) lines collapses to a single set:
     the cache is fully associative and every address contends for the
     same [ways] lines. *)
  let c = mk_cache ~ways:2 ~way_kb:1 ~line_words:256 ~repl:Arch.Config.Lru () in
  check_int "single set" 1 (Sim.Cache.sets c);
  ignore (Sim.Cache.read c 0);      (* A *)
  ignore (Sim.Cache.read c 1024);   (* B: different line, same set *)
  check_bool "both lines co-resident" true (Sim.Cache.read c 0);
  ignore (Sim.Cache.read c 2048);   (* C evicts LRU = B *)
  check_bool "A survives" true (Sim.Cache.read c 0);
  check_bool "B was evicted" false (Sim.Cache.read c 1024)

let test_direct_mapped_policy_irrelevant () =
  (* With one way the victim is forced, so every replacement policy
     must produce an identical miss stream. *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"direct-mapped ignores policy"
       QCheck.(list (int_bound 0xFFFF))
       (fun addrs ->
         let misses repl =
           let c = mk_cache ~ways:1 ~repl () in
           List.iter (fun a -> ignore (Sim.Cache.read c a)) addrs;
           (Sim.Cache.stats c).Sim.Cache.read_misses
         in
         let lru = misses Arch.Config.Lru in
         lru = misses Arch.Config.Lrr && lru = misses Arch.Config.Random))

let test_associativity_vs_capacity () =
  (* Same 2 KB capacity, different organization: lines 0 and 2048
     conflict in a 2 KB direct-mapped cache (same set, different tag)
     but co-reside in a 2-way 1 KB-per-way LRU cache. *)
  let dm = mk_cache ~ways:1 ~way_kb:2 () in
  ignore (Sim.Cache.read dm 0);
  ignore (Sim.Cache.read dm 2048);
  check_bool "direct-mapped conflict at same capacity" false
    (Sim.Cache.read dm 0);
  let assoc = mk_cache ~ways:2 ~way_kb:1 ~repl:Arch.Config.Lru () in
  ignore (Sim.Cache.read assoc 0);
  ignore (Sim.Cache.read assoc 2048);
  check_bool "2-way holds both" true (Sim.Cache.read assoc 0)

(* --- Fully-associative LRU reference --- *)

(* Naive fully-associative LRU reference. *)
let naive_lru_misses ~line_bytes ~lines trace =
  let stack = ref [] in
  let misses = ref 0 in
  Array.iter
    (fun addr ->
      let line = addr / line_bytes in
      let rest = List.filter (fun l -> l <> line) !stack in
      if not (List.mem line !stack) then begin
        incr misses;
        stack := line :: rest
      end
      else if List.length rest >= lines then begin
        (* line was in the stack but beyond capacity: miss *)
        let depth = ref 0 in
        List.iteri (fun k l -> if l = line then depth := k) !stack;
        if !depth >= lines then incr misses;
        stack := line :: rest
      end
      else begin
        let depth = ref 0 in
        List.iteri (fun k l -> if l = line then depth := k) !stack;
        if !depth >= lines then incr misses;
        stack := line :: rest
      end)
    trace;
  !misses

let test_single_set_lru_is_naive_lru () =
  (* A single-set LRU cache of W ways is exactly a fully-associative LRU
     cache of W lines. *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"single-set LRU = naive LRU"
       QCheck.(pair (int_range 1 4) (list (int_bound 0x3FFF)))
       (fun (ways, addrs) ->
         let c = mk_cache ~ways ~way_kb:1 ~line_words:256 ~repl:Arch.Config.Lru () in
         List.iter (fun a -> ignore (Sim.Cache.read c a)) addrs;
         (Sim.Cache.stats c).Sim.Cache.read_misses
         = naive_lru_misses ~line_bytes:1024 ~lines:ways (Array.of_list addrs)))

(* --- Recording and replay --- *)

(* qsort recurses past 8 windows, so its stream carries window spills
   and fills besides loads and stores. *)
let qsort = Lazy.force Apps.Extra.qsort.Apps.Registry.program

let recorded ~reps config =
  Sim.Recording.capture ~window:100 (fun () -> Sim.Machine.run ~reps config qsort)

(* Per segment, the replayed profile priced for [config]. *)
let replayed recording ~boundaries (config : Arch.Config.t) =
  List.map
    (Sim.Cost_model.price (Sim.Cost_model.of_arch_config config))
    (Sim.Recording.profiles recording ~boundaries
       ~icache:
         (Sim.Recording.replay recording Sim.Cache.Instruction
            config.Arch.Config.icache)
       ~dcache:
         (Sim.Recording.replay recording Sim.Cache.Data config.Arch.Config.dcache))

(* A packed profile unpacks to itself, at any offset, whatever its
   counters (negative ones included). *)
let test_profile_pack_roundtrip =
  QCheck.Test.make ~count:200 ~name:"profile pack/unpack roundtrip"
    QCheck.(pair (list_of_size (Gen.return 19) int) (int_bound 7))
    (fun (values, offset) ->
      let p = Sim.Profiler.create () in
      List.iteri
        (fun i v ->
          let v = v asr 2 in
          match i with
          | 0 -> p.Sim.Profiler.cycles <- v
          | 1 -> p.Sim.Profiler.instructions <- v
          | 2 -> p.Sim.Profiler.icache_misses <- v
          | 3 -> p.Sim.Profiler.dcache_reads <- v
          | 4 -> p.Sim.Profiler.dcache_read_misses <- v
          | 5 -> p.Sim.Profiler.dcache_writes <- v
          | 6 -> p.Sim.Profiler.dcache_write_misses <- v
          | 7 -> p.Sim.Profiler.branches <- v
          | 8 -> p.Sim.Profiler.taken_branches <- v
          | 9 -> p.Sim.Profiler.mults <- v
          | 10 -> p.Sim.Profiler.divs <- v
          | 11 -> p.Sim.Profiler.window_overflows <- v
          | 12 -> p.Sim.Profiler.window_underflows <- v
          | 13 -> p.Sim.Profiler.load_interlocks <- v
          | 14 -> p.Sim.Profiler.icc_hold_stalls <- v
          | 15 -> p.Sim.Profiler.shifts <- v
          | 16 -> p.Sim.Profiler.jumps <- v
          | 17 -> p.Sim.Profiler.load_uses <- v
          | _ -> p.Sim.Profiler.icc_waits <- v)
        values;
      let b = Buffer.create 64 in
      Buffer.add_string b (String.make offset 'x');
      Sim.Profiler.pack b p;
      Sim.Profiler.unpack (Buffer.contents b) ~pos:offset = p)

let test_replay_own_caches () =
  let boundaries = [ 1000; 5000 ] in
  let r, recording = recorded ~reps:3 base in
  let simulated = Sim.Machine.run_segmented ~reps:3 ~boundaries base qsort in
  check_bool "the captured run = the simulated run" true
    (r = simulated.Sim.Machine.result);
  check_int "three segments" 3 (List.length (replayed recording ~boundaries base));
  check_bool "the run traps" true
    (r.Sim.Machine.profile.Sim.Profiler.window_overflows > 0);
  check_bool "replaying its own caches gives back its phase profiles" true
    (replayed recording ~boundaries base = simulated.Sim.Machine.phase_profiles)

let test_replay_other_geometry () =
  let small ways repl =
    { Arch.Config.ways; way_kb = 1; line_words = 4; replacement = repl }
  in
  let other =
    {
      base with
      Arch.Config.icache = small 2 Arch.Config.Lru;
      dcache = small 1 Arch.Config.Random;
    }
  in
  let boundaries = [ 700 ] in
  let _, recording = recorded ~reps:2 base in
  let simulated =
    Sim.Machine.run_segmented ~reps:2 ~boundaries other qsort
  in
  check_bool "priced replay = simulated phase profiles" true
    (replayed recording ~boundaries other = simulated.Sim.Machine.phase_profiles);
  check_bool "a boundary off the window marks is refused" true
    (match replayed recording ~boundaries:[ 750 ] other with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The recorder keeps only the references that can miss in some valid
   geometry (see {!Sim.Recording}).  This kernel makes that filter
   work: an 8 KB array walked at 1 KB strides, so different lines
   share a class (addresses equal modulo 1 KB); stores before loads
   to the same lines; recursion past 8 register windows, so window
   spills and fills; and over 2 KB of code, so fetched lines share
   classes too. *)
let aliasing =
  lazy
    (let spread =
       String.concat "\n"
         (List.init 40 (fun k ->
              Printf.sprintf "  a = (a * %d) ^ (a >> %d);\n  b = b + a;"
                (3 + (2 * k)) (1 + (k mod 7))))
     in
     Minic.Codegen.compile
       (Minic.Parser.parse_exn
          (Printf.sprintf
             {|int big[2048];

int deep(int n) {
  int x, y;
  x = big[(n * 256) & 2047];
  y = 0;
  if (n > 0) {
    y = deep(n - 1);
  }
  big[((n * 256) + 4) & 2047] = x + y;
  return x + y + n;
}

int spread(int a) {
  int b;
  b = 0;
%s
  return b;
}

int main() {
  int i, j, s, t;
  s = 0;
  i = 0;
  while (i < 24) {
    j = 0;
    while (j < 8) {
      big[((j * 256) + i) & 2047] = i + j;
      s = s + big[((j * 256) + i) & 2047];
      j = j + 1;
    }
    j = 0;
    while (j < 8) {
      s = s + big[((j * 256) + (i * 4)) & 2047];
      j = j + 1;
    }
    t = deep(i & 15);
    s = s + t;
    t = spread(s);
    s = s + t;
    i = i + 1;
  }
  return s;
}
|}
             spread)))

let geometries ~valid =
  List.concat_map
    (fun ways ->
      List.concat_map
        (fun way_kb ->
          List.concat_map
            (fun line_words ->
              List.filter valid
                (List.map
                   (fun replacement ->
                     { Arch.Config.ways; way_kb; line_words; replacement })
                   [ Arch.Config.Random; Arch.Config.Lrr; Arch.Config.Lru ]))
            Arch.Config.valid_line_words)
        Arch.Config.valid_way_kbs)
    Arch.Config.valid_ways

let mb_base = Dse.Target_microblaze.lower Arch.Mb_config.base

(* Per target: its base configuration as the simulator runs it, and
   its valid icache and dcache geometries. *)
let targets =
  let leon2 c = Arch.Config.is_valid { base with Arch.Config.icache = c } in
  let mb_icache (c : Arch.Config.cache) =
    c.Arch.Config.ways = 1
    && c.Arch.Config.replacement = Arch.Config.Random
    && Arch.Mb_config.is_valid
         {
           Arch.Mb_config.base with
           Arch.Mb_config.icache =
             { Arch.Mb_config.way_kb = c.Arch.Config.way_kb; line_words = c.Arch.Config.line_words };
         }
  in
  let mb_dcache c = Arch.Mb_config.is_valid { Arch.Mb_config.base with Arch.Mb_config.dcache = c } in
  [
    ("leon2", base, geometries ~valid:leon2, geometries ~valid:leon2);
    ("microblaze", mb_base, geometries ~valid:mb_icache, geometries ~valid:mb_dcache);
  ]

let window = 1000
let cuts = [ 3000; 11000; 20000 ]

let same_profile what (a : Sim.Profiler.t) (b : Sim.Profiler.t) =
  Alcotest.(check (list (pair string int)))
    what (Sim.Profiler.to_assoc b) (Sim.Profiler.to_assoc a)

(* Every valid geometry of either cache, replayed from one recording
   per target and repetition count, whole-run and per segment, equals
   simulating it. *)
let test_filtered_replay_every_geometry () =
  let prog = Lazy.force aliasing in
  check_bool "112 LEON2, 12 + 60 MicroBlaze geometries" true
    (List.map (fun (_, _, i, d) -> (List.length i, List.length d)) targets
    = [ (112, 112); (12, 60) ]);
  List.iter
    (fun (target, config, icaches, dcaches) ->
      List.iter
        (fun reps ->
          let run, recording =
            Sim.Recording.capture ~window (fun () -> Sim.Machine.run ~reps config prog)
          in
          if target = "leon2" then
            check_bool "the kernel traps" true
              (run.Sim.Machine.profile.Sim.Profiler.window_overflows > 0);
          let check name (config : Arch.Config.t) =
            let what =
              Printf.sprintf "%s, reps %d, %s %s" target reps name
                (Arch.Codec.to_string config)
            in
            let whole = Sim.Machine.run ~reps config prog in
            let segmented = Sim.Machine.run_segmented ~reps ~boundaries:cuts config prog in
            List.iter2 (same_profile (what ^ " whole run"))
              (replayed recording ~boundaries:[] config)
              [ whole.Sim.Machine.profile ];
            List.iter2 (same_profile (what ^ " segment"))
              (replayed recording ~boundaries:cuts config)
              segmented.Sim.Machine.phase_profiles
          in
          List.iter
            (fun icache -> check "icache" { config with Arch.Config.icache })
            icaches;
          List.iter
            (fun dcache -> check "dcache" { config with Arch.Config.dcache })
            dcaches)
        [ 1; 3 ])
    targets

(* A phased replay whose switches start caches of the other line size
   replays each phase from that line size's stream. *)
let test_filtered_replay_line_switch () =
  let prog = Lazy.force aliasing in
  let other_line (c : Arch.Config.cache) =
    { c with Arch.Config.line_words = (if c.Arch.Config.line_words = 4 then 8 else 4) }
  in
  List.iter
    (fun (target, (config : Arch.Config.t), _, _) ->
      let other =
        {
          config with
          Arch.Config.icache = other_line config.Arch.Config.icache;
          dcache = other_line config.Arch.Config.dcache;
        }
      in
      let switches =
        List.mapi
          (fun k at_insn ->
            {
              Sim.Machine.at_insn;
              config = (if k mod 2 = 0 then other else config);
              shift_stall = 0;
              cycles = 40;
            })
          cuts
      in
      List.iter
        (fun reps ->
          let _, recording =
            Sim.Recording.capture ~window (fun () -> Sim.Machine.run ~reps config prog)
          in
          let replayed =
            Sim.Machine.replay_phased ~wrap_cycles:25 ~switches recording config
          in
          let simulated =
            Sim.Machine.run_phased ~reps ~wrap_cycles:25 ~switches config prog
          in
          let what = Printf.sprintf "%s, reps %d" target reps in
          same_profile (what ^ " phased run") replayed.Sim.Machine.result.Sim.Machine.profile
            simulated.Sim.Machine.result.Sim.Machine.profile;
          List.iter2 (same_profile (what ^ " phase"))
            replayed.Sim.Machine.phase_profiles simulated.Sim.Machine.phase_profiles;
          check_bool (what ^ " phased result") true
            (replayed.Sim.Machine.result = simulated.Sim.Machine.result
            && replayed.Sim.Machine.switch_cycles = simulated.Sim.Machine.switch_cycles))
        [ 1; 3 ])
    targets

let test_filtered_replay_refuses () =
  let _, recording =
    Sim.Recording.capture ~window (fun () -> Sim.Machine.run base (Lazy.force aliasing))
  in
  List.iter
    (fun (way_kb, line_words) ->
      check_bool
        (Printf.sprintf "%d KB ways of %d-word lines are refused" way_kb line_words)
        true
        (match
           Sim.Recording.replay recording Sim.Cache.Data
             { base.Arch.Config.dcache with Arch.Config.way_kb; line_words }
         with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ (0, 4); (1, 2); (4, 16) ]

(* --- CPU: assembly helpers --- *)

let run_asm ?(config = base) build =
  let a = Isa.Asm.create () in
  build a;
  let p = Isa.Asm.finish a ~entry:0 in
  let cpu = Sim.Cpu.create config p ~mem_size:(1 lsl 16) in
  Sim.Cpu.run cpu;
  cpu

let o0 = Isa.Reg.o 0
let o1 = Isa.Reg.o 1
let mov_imm a v rd = Isa.Asm.set32 a v rd

let alu op ?(cc = false) rd rs1 op2 = Isa.Insn.Alu { op; cc; rd; rs1; op2 }

let test_alu_basic () =
  let cpu =
    run_asm (fun a ->
        mov_imm a 5 o0;
        Isa.Asm.emit a (alu Isa.Insn.Add o0 o0 (Isa.Insn.Imm 3));
        Isa.Asm.emit a Isa.Insn.Halt)
  in
  check_int "5 + 3" 8 (Sim.Cpu.result cpu)

let test_alu_wrap () =
  let cpu =
    run_asm (fun a ->
        mov_imm a 0x7FFFFFFF o0;
        Isa.Asm.emit a (alu Isa.Insn.Add o0 o0 (Isa.Insn.Imm 1));
        Isa.Asm.emit a Isa.Insn.Halt)
  in
  check_int "signed overflow wraps" 0x80000000 (Sim.Cpu.result cpu)

let test_shifts () =
  let cpu =
    run_asm (fun a ->
        mov_imm a (-8) o0;
        Isa.Asm.emit a (alu Isa.Insn.Sra o1 o0 (Isa.Insn.Imm 1));
        Isa.Asm.emit a (alu Isa.Insn.Srl o0 o0 (Isa.Insn.Imm 28));
        Isa.Asm.emit a (alu Isa.Insn.Add o0 o0 (Isa.Insn.Reg o1));
        Isa.Asm.emit a Isa.Insn.Halt)
  in
  (* -8 asr 1 = -4 (0xFFFFFFFC); -8 lsr 28 = 0xF; sum = 0xFFFFFFFC + F *)
  check_int "sra + srl" ((0xFFFFFFFC + 0xF) land 0xFFFFFFFF) (Sim.Cpu.result cpu)

let test_mul_div () =
  let cpu =
    run_asm (fun a ->
        mov_imm a (-6) o0;
        Isa.Asm.emit a (Isa.Insn.Mul { signed = true; cc = false; rd = o0; rs1 = o0; op2 = Isa.Insn.Imm 7 });
        Isa.Asm.emit a (Isa.Insn.Div { signed = true; rd = o0; rs1 = o0; op2 = Isa.Insn.Imm 4 });
        Isa.Asm.emit a Isa.Insn.Halt)
  in
  (* -42 / 4 truncates toward zero: -10. *)
  check_int "signed mul/div" ((-10) land 0xFFFFFFFF) (Sim.Cpu.result cpu)

let test_div_by_zero () =
  match
    run_asm (fun a ->
        mov_imm a 1 o0;
        Isa.Asm.emit a (Isa.Insn.Div { signed = true; rd = o0; rs1 = o0; op2 = Isa.Insn.Imm 0 });
        Isa.Asm.emit a Isa.Insn.Halt)
  with
  | exception Sim.Cpu.Error _ -> ()
  | _ -> Alcotest.fail "expected division-by-zero error"

let test_branch_signed () =
  (* -1 < 1 signed: blt taken. *)
  let cpu =
    run_asm (fun a ->
        mov_imm a (-1) o0;
        Isa.Asm.emit a (alu Isa.Insn.Sub ~cc:true 0 o0 (Isa.Insn.Imm 1));
        Isa.Asm.bcc a Isa.Insn.Lt "less";
        mov_imm a 0 o0;
        Isa.Asm.emit a Isa.Insn.Halt;
        Isa.Asm.label a "less";
        mov_imm a 1 o0;
        Isa.Asm.emit a Isa.Insn.Halt)
  in
  check_int "signed less-than" 1 (Sim.Cpu.result cpu)

let test_branch_unsigned () =
  (* 0xFFFFFFFF > 1 unsigned: bgu taken. *)
  let cpu =
    run_asm (fun a ->
        mov_imm a (-1) o0;
        Isa.Asm.emit a (alu Isa.Insn.Sub ~cc:true 0 o0 (Isa.Insn.Imm 1));
        Isa.Asm.bcc a Isa.Insn.Gu "above";
        mov_imm a 0 o0;
        Isa.Asm.emit a Isa.Insn.Halt;
        Isa.Asm.label a "above";
        mov_imm a 1 o0;
        Isa.Asm.emit a Isa.Insn.Halt)
  in
  check_int "unsigned greater" 1 (Sim.Cpu.result cpu)

let test_load_store () =
  let cpu =
    run_asm (fun a ->
        let buf = Isa.Asm.data_zero a ~name:"buf" 16 in
        mov_imm a buf o1;
        mov_imm a 0x1234 o0;
        Isa.Asm.emit a (Isa.Insn.Store { width = Isa.Insn.Word; rs = o0; rs1 = o1; op2 = Isa.Insn.Imm 4 });
        mov_imm a 0 o0;
        Isa.Asm.emit a (Isa.Insn.Load { width = Isa.Insn.Word; signed = false; rd = o0; rs1 = o1; op2 = Isa.Insn.Imm 4 });
        Isa.Asm.emit a Isa.Insn.Halt)
  in
  check_int "store/load roundtrip" 0x1234 (Sim.Cpu.result cpu)

let test_byte_access () =
  let cpu =
    run_asm (fun a ->
        let buf = Isa.Asm.data_bytes a ~name:"b" (Bytes.of_string "\x01\xFF\x03\x04") in
        mov_imm a buf o1;
        Isa.Asm.emit a (Isa.Insn.Load { width = Isa.Insn.Byte; signed = false; rd = o0; rs1 = o1; op2 = Isa.Insn.Imm 1 });
        Isa.Asm.emit a Isa.Insn.Halt)
  in
  check_int "unsigned byte load" 0xFF (Sim.Cpu.result cpu)

let test_signed_byte () =
  let cpu =
    run_asm (fun a ->
        let buf = Isa.Asm.data_bytes a ~name:"b" (Bytes.of_string "\x01\xFF") in
        mov_imm a buf o1;
        Isa.Asm.emit a (Isa.Insn.Load { width = Isa.Insn.Byte; signed = true; rd = o0; rs1 = o1; op2 = Isa.Insn.Imm 1 });
        Isa.Asm.emit a Isa.Insn.Halt)
  in
  check_int "signed byte load" 0xFFFFFFFF (Sim.Cpu.result cpu)

(* Recursive factorial exercising register windows and traps. *)
let factorial_program n =
  fun a ->
    mov_imm a n o0;
    Isa.Asm.call a "fact";
    Isa.Asm.emit a Isa.Insn.Halt;
    Isa.Asm.label a "fact";
    Isa.Asm.emit a (Isa.Insn.Save { rd = Isa.Reg.sp; rs1 = Isa.Reg.sp; op2 = Isa.Insn.Imm (-96) });
    Isa.Asm.emit a (alu Isa.Insn.Sub ~cc:true 0 (Isa.Reg.i 0) (Isa.Insn.Imm 1));
    Isa.Asm.bcc a Isa.Insn.Gt "rec";
    mov_imm a 1 (Isa.Reg.i 0);
    Isa.Asm.emit a (Isa.Insn.Restore { rd = 0; rs1 = 0; op2 = Isa.Insn.Reg 0 });
    Isa.Asm.ret a;
    Isa.Asm.label a "rec";
    Isa.Asm.emit a (alu Isa.Insn.Sub o0 (Isa.Reg.i 0) (Isa.Insn.Imm 1));
    Isa.Asm.call a "fact";
    Isa.Asm.emit a (Isa.Insn.Mul { signed = true; cc = false; rd = Isa.Reg.i 0; rs1 = Isa.Reg.i 0; op2 = Isa.Insn.Reg o0 });
    Isa.Asm.emit a (Isa.Insn.Restore { rd = 0; rs1 = 0; op2 = Isa.Insn.Reg 0 });
    Isa.Asm.ret a

let test_factorial_shallow () =
  let cpu = run_asm (factorial_program 5) in
  check_int "5!" 120 (Sim.Cpu.result cpu);
  check_int "no overflows at depth 5 with 8 windows" 0
    (Sim.Cpu.profile cpu).Sim.Profiler.window_overflows

let test_factorial_deep_traps () =
  let cpu = run_asm (factorial_program 12) in
  check_int "12!" 479001600 (Sim.Cpu.result cpu);
  let p = Sim.Cpu.profile cpu in
  check_bool "overflow traps occurred" true (p.Sim.Profiler.window_overflows > 0);
  check_int "fills match spills" p.Sim.Profiler.window_overflows
    p.Sim.Profiler.window_underflows

let test_windows_semantic_invariance () =
  (* The result must not depend on the number of windows; cycles must
     not increase with more windows. *)
  let more = with_iu (fun u -> { u with Arch.Config.reg_windows = 32 }) in
  let cpu8 = run_asm (factorial_program 12) in
  let cpu32 = run_asm ~config:more (factorial_program 12) in
  check_int "same result" (Sim.Cpu.result cpu8) (Sim.Cpu.result cpu32);
  check_int "no traps with 32 windows" 0
    (Sim.Cpu.profile cpu32).Sim.Profiler.window_overflows;
  check_bool "more windows, fewer cycles" true
    ((Sim.Cpu.profile cpu32).Sim.Profiler.cycles
    < (Sim.Cpu.profile cpu8).Sim.Profiler.cycles)

(* --- Cycle accounting --- *)

let cycles_of ?config build =
  (Sim.Cpu.profile (run_asm ?config build)).Sim.Profiler.cycles

let test_simple_cycle_count () =
  (* nop; halt: one cold icache miss (13-cycle fill) + 2 cycles. *)
  let c =
    cycles_of (fun a ->
        Isa.Asm.emit a Isa.Insn.Nop;
        Isa.Asm.emit a Isa.Insn.Halt)
  in
  check_int "nop+halt cycles" 15 c

let test_mul_latency_effect () =
  let body a =
    mov_imm a 3 o0;
    for _ = 1 to 10 do
      Isa.Asm.emit a (Isa.Insn.Mul { signed = true; cc = false; rd = o0; rs1 = o0; op2 = Isa.Insn.Imm 1 })
    done;
    Isa.Asm.emit a Isa.Insn.Halt
  in
  let fast = with_iu (fun u -> { u with Arch.Config.multiplier = Arch.Config.Mul_32x32 }) in
  let slow = with_iu (fun u -> { u with Arch.Config.multiplier = Arch.Config.Mul_iterative }) in
  let cf = cycles_of ~config:fast body and cs = cycles_of ~config:slow body in
  (* 10 multiplies, latency 35 vs 1. *)
  check_int "latency difference" (10 * 34) (cs - cf)

let test_icc_hold_effect () =
  let body a =
    mov_imm a 0 o0;
    Isa.Asm.label a "top";
    Isa.Asm.emit a (alu Isa.Insn.Add o0 o0 (Isa.Insn.Imm 1));
    Isa.Asm.emit a (alu Isa.Insn.Sub ~cc:true 0 o0 (Isa.Insn.Imm 100));
    Isa.Asm.bcc a Isa.Insn.Lt "top";
    Isa.Asm.emit a Isa.Insn.Halt
  in
  let hold = cycles_of body in
  let nohold =
    cycles_of ~config:(with_iu (fun u -> { u with Arch.Config.icc_hold = false })) body
  in
  (* 100 branches, each immediately after subcc: one stall each. *)
  check_int "icc hold stalls" 100 (hold - nohold)

let test_fast_jump_effect () =
  let body a =
    for _ = 1 to 5 do
      Isa.Asm.call a "f"
    done;
    Isa.Asm.emit a Isa.Insn.Halt;
    Isa.Asm.label a "f";
    Isa.Asm.ret a
  in
  let fast = cycles_of body in
  let slow =
    cycles_of ~config:(with_iu (fun u -> { u with Arch.Config.fast_jump = false })) body
  in
  (* 5 calls + 5 returns, each one cycle slower without fast jump. *)
  check_int "jump penalty" 10 (slow - fast)

let test_load_delay_effect () =
  let body a =
    let buf = Isa.Asm.data_words a ~name:"w" [| 7 |] in
    mov_imm a buf o1;
    for _ = 1 to 8 do
      (* Dependent consumer right after the load. *)
      Isa.Asm.emit a (Isa.Insn.Load { width = Isa.Insn.Word; signed = false; rd = o0; rs1 = o1; op2 = Isa.Insn.Imm 0 });
      Isa.Asm.emit a (alu Isa.Insn.Add o0 o0 (Isa.Insn.Imm 1))
    done;
    Isa.Asm.emit a Isa.Insn.Halt
  in
  let d1 = cycles_of body in
  let d2 =
    cycles_of ~config:(with_iu (fun u -> { u with Arch.Config.load_delay = 2 })) body
  in
  check_int "interlock stalls" 8 (d2 - d1)

let test_fast_read_neutral () =
  let body a =
    let buf = Isa.Asm.data_words a ~name:"w" [| 7 |] in
    mov_imm a buf o1;
    for _ = 1 to 16 do
      Isa.Asm.emit a (Isa.Insn.Load { width = Isa.Insn.Word; signed = false; rd = o0; rs1 = o1; op2 = Isa.Insn.Imm 0 })
    done;
    Isa.Asm.emit a Isa.Insn.Halt
  in
  let normal = cycles_of body in
  let fast = cycles_of ~config:{ base with Arch.Config.dcache_fast_read = true } body in
  (* Area-only option at fixed clock: CPI must be unchanged. *)
  check_int "fast read is CPI-neutral" normal fast

let test_fast_write_neutral () =
  let body a =
    let buf = Isa.Asm.data_words a ~name:"w" [| 0 |] in
    mov_imm a buf o1;
    for _ = 1 to 16 do
      Isa.Asm.emit a (Isa.Insn.Store { width = Isa.Insn.Word; rs = o0; rs1 = o1; op2 = Isa.Insn.Imm 0 })
    done;
    Isa.Asm.emit a Isa.Insn.Halt
  in
  let normal = cycles_of body in
  let fast = cycles_of ~config:{ base with Arch.Config.dcache_fast_write = true } body in
  check_int "fast write is CPI-neutral" normal fast

let test_branch_cycle_costs () =
  (* Taken branch: +1 redirect; untaken: free.  Loop of k iterations
     has k-1 taken back edges plus one fall-through. *)
  let body taken a =
    mov_imm a 0 o0;
    Isa.Asm.emit a (alu Isa.Insn.Add o0 o0 (Isa.Insn.Imm 1));
    (* one branch, never taken vs always taken once *)
    Isa.Asm.emit a (alu Isa.Insn.Sub ~cc:true 0 o0 (Isa.Insn.Imm (if taken then 1 else 99)));
    Isa.Asm.bcc a Isa.Insn.Eq "off";
    Isa.Asm.emit a Isa.Insn.Nop;
    Isa.Asm.label a "off";
    Isa.Asm.emit a Isa.Insn.Halt
  in
  let t = cycles_of (body true) and u = cycles_of (body false) in
  (* Taken path skips the nop (-1 cycle) but pays the redirect (+1):
     identical totals; instruction counts differ by one. *)
  check_int "taken = untaken + redirect - skipped nop" u t

let test_store_costs_two_cycles () =
  let with_stores n a =
    let buf = Isa.Asm.data_words a ~name:"w" [| 0 |] in
    mov_imm a buf o1;
    ignore (Sim.Memory.write_cycles);
    for _ = 1 to n do
      Isa.Asm.emit a (Isa.Insn.Store { width = Isa.Insn.Word; rs = o0; rs1 = o1; op2 = Isa.Insn.Imm 0 })
    done;
    Isa.Asm.emit a Isa.Insn.Halt
  in
  (* each extra store adds exactly 2 cycles (1 base + 1 buffer) *)
  check_int "store delta" 2 (cycles_of (with_stores 5) - cycles_of (with_stores 4))

let test_save_restore_cost () =
  (* Without traps, save and restore are single-cycle. *)
  let body n a =
    for _ = 1 to n do
      Isa.Asm.emit a (Isa.Insn.Save { rd = Isa.Reg.sp; rs1 = Isa.Reg.sp; op2 = Isa.Insn.Imm (-96) });
      Isa.Asm.emit a (Isa.Insn.Restore { rd = 0; rs1 = 0; op2 = Isa.Insn.Reg 0 })
    done;
    Isa.Asm.emit a Isa.Insn.Halt
  in
  check_int "save+restore pair" 2 (cycles_of (body 3) - cycles_of (body 2))

let test_icache_line_boundary () =
  (* 9 nops cross one 32-byte (8-word) line: exactly two cold fills. *)
  let body n a =
    for _ = 1 to n do
      Isa.Asm.emit a Isa.Insn.Nop
    done;
    Isa.Asm.emit a Isa.Insn.Halt
  in
  let c7 = run_asm (body 6) and c9 = run_asm (body 8) in
  check_int "one fill for 7 insns" 1 (Sim.Cpu.profile c7).Sim.Profiler.icache_misses;
  check_int "two fills for 9 insns" 2 (Sim.Cpu.profile c9).Sim.Profiler.icache_misses

let test_div_latency_effect () =
  let body a =
    mov_imm a 1000 o0;
    for _ = 1 to 4 do
      Isa.Asm.emit a (Isa.Insn.Div { signed = true; rd = o0; rs1 = o0; op2 = Isa.Insn.Imm 1 })
    done;
    Isa.Asm.emit a Isa.Insn.Halt
  in
  let hw = cycles_of body in
  let sw =
    cycles_of ~config:(with_iu (fun u -> { u with Arch.Config.divider = Arch.Config.Div_none })) body
  in
  (* 4 divides, latency 180 vs 35. *)
  check_int "software division penalty" (4 * (180 - 35)) (sw - hw)

let test_determinism () =
  let build = factorial_program 10 in
  let c1 = cycles_of build and c2 = cycles_of build in
  check_int "same cycles on identical runs" c1 c2

(* --- Trace --- *)

let test_trace_listing () =
  let a = Isa.Asm.create () in
  mov_imm a 1 o0;
  Isa.Asm.emit a (alu Isa.Insn.Add o0 o0 (Isa.Insn.Imm 2));
  Isa.Asm.emit a Isa.Insn.Halt;
  let p = Isa.Asm.finish a ~entry:0 in
  let cpu = Sim.Cpu.create base p ~mem_size:(1 lsl 16) in
  let entries = Sim.Trace.run cpu in
  check_int "three instructions" 3 (List.length entries);
  check_bool "halted afterwards" true (Sim.Cpu.halted cpu);
  check_int "result visible after trace" 3 (Sim.Cpu.result cpu);
  let cycles = List.map (fun (e : Sim.Trace.entry) -> e.Sim.Trace.cycles_after) entries in
  check_bool "cycles strictly increasing" true
    (List.sort compare cycles = cycles);
  let listing = Fmt.str "%a" Sim.Trace.pp entries in
  check_bool "listing mentions halt" true
    (String.length listing > 0
    && (try ignore (Str.search_forward (Str.regexp_string "halt") listing 0); true
        with Not_found -> false))

let test_trace_limit () =
  let a = Isa.Asm.create () in
  Isa.Asm.label a "spin";
  Isa.Asm.emit a Isa.Insn.Nop;
  Isa.Asm.ba a "spin";
  let p = Isa.Asm.finish a ~entry:0 in
  let cpu = Sim.Cpu.create base p ~mem_size:(1 lsl 16) in
  let entries = Sim.Trace.run ~limit:50 cpu in
  check_int "stops at the limit" 50 (List.length entries);
  check_bool "machine still live" true (not (Sim.Cpu.halted cpu))

let test_store_misses_counted () =
  (* Stores 4 KB apart all conflict in the 4 KB direct-mapped base
     dcache and never allocate; a load allocates one line, and the
     store-miss that follows leaves it MRU. *)
  let store a off =
    Isa.Asm.emit a
      (Isa.Insn.Store { width = Isa.Insn.Word; rs = o0; rs1 = o1; op2 = Isa.Insn.Imm off })
  in
  let cpu =
    run_asm (fun a ->
        let buf = Isa.Asm.data_zero a ~name:"buf" 4096 in
        mov_imm a buf o1;
        List.iter (store a) [ 0; 4096; 8192; 12288 ];
        Isa.Asm.emit a
          (Isa.Insn.Load { width = Isa.Insn.Word; signed = false; rd = o0; rs1 = o1; op2 = Isa.Insn.Imm 0 });
        List.iter (store a) [ 0; 4096 ];
        Isa.Asm.emit a
          (Isa.Insn.Load { width = Isa.Insn.Word; signed = false; rd = o0; rs1 = o1; op2 = Isa.Insn.Imm 4 });
        store a 4096;
        Isa.Asm.emit a Isa.Insn.Halt)
  in
  let p = Sim.Cpu.profile cpu in
  check_int "six write misses" 6 p.Sim.Profiler.dcache_write_misses;
  check_int "profile = the dcache's own count"
    (Sim.Cache.stats (Sim.Cpu.dcache cpu)).Sim.Cache.write_misses
    p.Sim.Profiler.dcache_write_misses;
  (* window spills store through the dcache too *)
  let deep = run_asm (factorial_program 12) in
  let p = Sim.Cpu.profile deep in
  check_bool "spills miss" true (p.Sim.Profiler.dcache_write_misses > 0);
  check_int "spill misses = the dcache's own count"
    (Sim.Cache.stats (Sim.Cpu.dcache deep)).Sim.Cache.write_misses
    p.Sim.Profiler.dcache_write_misses

(* --- Machine --- *)

let test_machine_scaling () =
  let a = Isa.Asm.create () in
  factorial_program 8 a;
  let p = Isa.Asm.finish a ~entry:0 in
  let r1 = Sim.Machine.run ~reps:1 base p in
  let r10 = Sim.Machine.run ~reps:10 base p in
  check_int "same checksum" r1.Sim.Machine.checksum r10.Sim.Machine.checksum;
  check_bool "warm run at most as slow as cold" true
    (r10.Sim.Machine.warm_cycles <= r10.Sim.Machine.cold_cycles);
  check_int "scaling formula"
    (r10.Sim.Machine.cold_cycles + (9 * r10.Sim.Machine.warm_cycles))
    r10.Sim.Machine.profile.Sim.Profiler.cycles

let test_machine_single_rep_epoch () =
  (* reps = 1 is a pure cold run: no warm epoch executes, and both
     epoch fields report the cold measurement. *)
  let a = Isa.Asm.create () in
  factorial_program 6 a;
  let p = Isa.Asm.finish a ~entry:0 in
  let r = Sim.Machine.run ~reps:1 base p in
  check_int "profile is the cold epoch" r.Sim.Machine.cold_cycles
    r.Sim.Machine.profile.Sim.Profiler.cycles;
  check_int "warm field mirrors cold" r.Sim.Machine.cold_cycles
    r.Sim.Machine.warm_cycles

let test_machine_epoch_independence () =
  (* Epoch measurements are per-epoch, not per-run: cold and warm
     cycles must not depend on how many warm repetitions are billed. *)
  let a = Isa.Asm.create () in
  factorial_program 8 a;
  let p = Isa.Asm.finish a ~entry:0 in
  let r2 = Sim.Machine.run ~reps:2 base p in
  let r10 = Sim.Machine.run ~reps:10 base p in
  check_int "cold epoch independent of reps" r2.Sim.Machine.cold_cycles
    r10.Sim.Machine.cold_cycles;
  check_int "warm epoch independent of reps" r2.Sim.Machine.warm_cycles
    r10.Sim.Machine.warm_cycles

(* [sim.executed_cycles] counts the epochs actually simulated, while
   [sim.cycles] counts the reps-scaled profile. *)
let test_machine_executed_cycles () =
  let a = Isa.Asm.create () in
  factorial_program 8 a;
  let p = Isa.Asm.finish a ~entry:0 in
  let counted reps =
    let before = Obs.Metrics.snapshot () in
    let r = Sim.Machine.run ~reps base p in
    let after = Obs.Metrics.snapshot () in
    let delta name =
      Obs.Metrics.counter_value after name - Obs.Metrics.counter_value before name
    in
    (r, delta "sim.executed_cycles", delta "sim.cycles")
  in
  let r1, executed1, scaled1 = counted 1 in
  check_int "reps 1: the cold epoch executed" r1.Sim.Machine.cold_cycles executed1;
  check_int "reps 1: scaled = executed" executed1 scaled1;
  let r50, executed50, scaled50 = counted 50 in
  check_int "reps 50: cold plus one warm epoch executed"
    (r50.Sim.Machine.cold_cycles + r50.Sim.Machine.warm_cycles)
    executed50;
  check_int "reps 50: scaled to 50 executions"
    (r50.Sim.Machine.cold_cycles + (49 * r50.Sim.Machine.warm_cycles))
    scaled50

let test_machine_warm_epoch_cache_state () =
  (* The cold/warm boundary reinitialises the architectural state but
     NOT the caches: nop+halt costs one 13-cycle line fill plus 2
     cycles cold, and exactly 2 cycles warm. *)
  let a = Isa.Asm.create () in
  Isa.Asm.emit a Isa.Insn.Nop;
  Isa.Asm.emit a Isa.Insn.Halt;
  let p = Isa.Asm.finish a ~entry:0 in
  let r = Sim.Machine.run ~reps:3 base p in
  check_int "cold epoch pays the line fill" 15 r.Sim.Machine.cold_cycles;
  check_int "warm epoch runs from a hot icache" 2 r.Sim.Machine.warm_cycles;
  check_int "billed total" (15 + (2 * 2)) r.Sim.Machine.profile.Sim.Profiler.cycles;
  check_int "instructions scale with reps" (3 * 2)
    r.Sim.Machine.profile.Sim.Profiler.instructions

let () =
  Alcotest.run "sim"
    [
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_memory_rw;
          Alcotest.test_case "faults" `Quick test_memory_faults;
          Alcotest.test_case "line fill cycles" `Quick test_line_fill_cycles;
        ] );
      ( "cache",
        [
          Alcotest.test_case "geometry" `Quick test_cache_geometry;
          Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
          Alcotest.test_case "direct-mapped conflict" `Quick test_direct_mapped_conflict;
          Alcotest.test_case "two-way no conflict" `Quick test_two_way_no_conflict;
          Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "LRR round robin" `Quick test_lrr_round_robin;
          Alcotest.test_case "write no-allocate" `Quick test_write_no_allocate;
          Alcotest.test_case "stats sanity (qcheck)" `Quick test_fills_equal_misses_qcheck;
          Alcotest.test_case "capacity steady state" `Quick test_lru_capacity_property;
          Alcotest.test_case "single-set fully assoc" `Quick test_single_set_fully_assoc;
          Alcotest.test_case "single-set LRU = naive LRU (qcheck)" `Quick
            test_single_set_lru_is_naive_lru;
          Alcotest.test_case "direct-mapped ignores policy (qcheck)" `Quick
            test_direct_mapped_policy_irrelevant;
          Alcotest.test_case "associativity vs capacity" `Quick
            test_associativity_vs_capacity;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "alu basic" `Quick test_alu_basic;
          Alcotest.test_case "alu wrap" `Quick test_alu_wrap;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "mul/div" `Quick test_mul_div;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero;
          Alcotest.test_case "signed branch" `Quick test_branch_signed;
          Alcotest.test_case "unsigned branch" `Quick test_branch_unsigned;
          Alcotest.test_case "load/store" `Quick test_load_store;
          Alcotest.test_case "byte access" `Quick test_byte_access;
          Alcotest.test_case "signed byte" `Quick test_signed_byte;
          Alcotest.test_case "factorial shallow" `Quick test_factorial_shallow;
          Alcotest.test_case "factorial deep traps" `Quick test_factorial_deep_traps;
          Alcotest.test_case "window invariance" `Quick test_windows_semantic_invariance;
          Alcotest.test_case "store misses counted" `Quick test_store_misses_counted;
        ] );
      ( "timing",
        [
          Alcotest.test_case "nop+halt" `Quick test_simple_cycle_count;
          Alcotest.test_case "mul latency" `Quick test_mul_latency_effect;
          Alcotest.test_case "icc hold" `Quick test_icc_hold_effect;
          Alcotest.test_case "fast jump" `Quick test_fast_jump_effect;
          Alcotest.test_case "load delay" `Quick test_load_delay_effect;
          Alcotest.test_case "fast read neutral" `Quick test_fast_read_neutral;
          Alcotest.test_case "fast write neutral" `Quick test_fast_write_neutral;
          Alcotest.test_case "branch costs" `Quick test_branch_cycle_costs;
          Alcotest.test_case "store cost" `Quick test_store_costs_two_cycles;
          Alcotest.test_case "save/restore cost" `Quick test_save_restore_cost;
          Alcotest.test_case "icache line boundary" `Quick test_icache_line_boundary;
          Alcotest.test_case "divider latency" `Quick test_div_latency_effect;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "trace",
        [
          Alcotest.test_case "listing" `Quick test_trace_listing;
          Alcotest.test_case "limit" `Quick test_trace_limit;
        ] );
      ( "machine",
        [
          Alcotest.test_case "rep scaling" `Quick test_machine_scaling;
          Alcotest.test_case "single rep epoch" `Quick test_machine_single_rep_epoch;
          Alcotest.test_case "epoch independence" `Quick test_machine_epoch_independence;
          Alcotest.test_case "warm epoch cache state" `Quick
            test_machine_warm_epoch_cache_state;
          Alcotest.test_case "executed cycles" `Quick test_machine_executed_cycles;
        ] );
      ( "recording",
        [
          Alcotest.test_case "own caches replay the recorded profiles" `Quick
            test_replay_own_caches;
          Alcotest.test_case "another geometry replays its simulation" `Quick
            test_replay_other_geometry;
          Alcotest.test_case "every valid geometry replays its simulation" `Quick
            test_filtered_replay_every_geometry;
          Alcotest.test_case "a switch of line size replays its simulation" `Quick
            test_filtered_replay_line_switch;
          Alcotest.test_case "geometries outside the classes are refused" `Quick
            test_filtered_replay_refuses;
          QCheck_alcotest.to_alcotest test_profile_pack_roundtrip;
        ] );
    ]

(* Direct-threaded execution core.

   [create] pre-decodes the program ({!Decode}) and compiles each
   static instruction into one execute handler — a closure capturing
   the instruction's operands and pre-priced base cycles — so the
   per-instruction path is a single indirect call with no per-cycle
   decode, operand resolution, or stall re-derivation.  All cycle
   prices come from the shared {!Cost_model} table; the handlers only
   add the dynamic costs the table cannot know statically (cache line
   fills, the ICC hold against the previous instruction, window traps,
   the taken-branch redirect).

   Two hot-path shortcuts are observably exact:

   - Same-line access fast path: an access to the line the cache made
     most-recently-used on its previous access is a guaranteed hit,
     and re-touching the MRU way preserves the within-set recency
     order every replacement policy decides victims by (LRU compares
     stamps only within a set, LRR and Random ignore touches
     entirely).  The handler skips the tag search and bumps the
     cache's read/write count directly, so hit/miss sequences, victim
     choices and statistics are bit-identical.  [dlast] is maintained
     on every dcache access (a write miss allocates nothing and
     touches nothing, so it leaves the invariant intact) and
     invalidated after window traps; [ilast] needs no invalidation
     because only fetches touch the icache.

   - Register-window addressing replaces [Isa.Reg.physical]'s
     division with one conditional subtract — exact for r in 8..31
     and cwp in 0..nwin-1, where cwp*16 + (r-8) < 2*(nwin*16).

   A machine created with a {!Recording.recorder} runs hooked copies of
   its fetch-redirecting, load and store handlers that feed the
   recorder, until {!stop_recording} puts the plain handlers back; a
   machine without one never pays for the hooks. *)

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let mask32 = 0xFFFFFFFF

type t = {
  mutable config : Arch.Config.t;
  prog : Isa.Program.t;
  mutable cm : Cost_model.t;
  regs : int array;
  nwin : int;
  wsize : int;  (* nwin * 16: windowed registers in the file *)
  mutable cwp : int;
  mutable resident : int;  (* frames currently held in windows, 1..nwin-1 *)
  mutable pc : int;
  mutable halted : bool;
  mutable icc_n : bool;
  mutable icc_z : bool;
  mutable icc_v : bool;
  mutable icc_c : bool;
  mutable prev_set_icc : bool;
  (* same-line fast-path state: line address whose way is known
     resident and most-recently-used in its set; -1 when unknown *)
  mutable ilast : int;
  mutable dlast : int;
  mutable ishift : int;  (* log2 icache line bytes *)
  mutable dshift : int;  (* log2 dcache line bytes *)
  mem : Memory.t;
  mutable icache : Cache.t;
  mutable dcache : Cache.t;
  mutable istats : Cache.stats;
  mutable dstats : Cache.stats;
  prof : Profiler.t;
  mutable recorder : Recording.recorder option;
  mutable handlers : (unit -> unit) array;
  mutable plain : (unit -> unit) array;  (* [handlers] without recording hooks *)
}

(* Window-relative register addressing without the division of
   [Isa.Reg.physical]: for r in 8..31 the raw index cwp*16 + (r-8) is
   at most wsize + 7, so one conditional subtract performs the
   wrap-around exactly.  The result is within the register file by
   construction, hence the unchecked array accesses. *)
let[@inline] rread t r =
  if r < 8 then if r = 0 then 0 else Array.unsafe_get t.regs r
  else
    let x = (t.cwp lsl 4) + (r - 8) in
    let x = if x >= t.wsize then x - t.wsize else x in
    Array.unsafe_get t.regs (8 + x)

let[@inline] rwrite t r v =
  if r <> 0 then
    if r < 8 then Array.unsafe_set t.regs r (v land mask32)
    else
      let x = (t.cwp lsl 4) + (r - 8) in
      let x = if x >= t.wsize then x - t.wsize else x in
      Array.unsafe_set t.regs (8 + x) (v land mask32)

let read_reg t r = if r = 0 then 0 else rread t r
let write_reg t r v = rwrite t r v

let to_signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

let set_nz t res =
  t.icc_n <- res land 0x80000000 <> 0;
  t.icc_z <- res = 0

let branch_taken t = function
  | Isa.Insn.Always -> true
  | Isa.Insn.Eq -> t.icc_z
  | Isa.Insn.Ne -> not t.icc_z
  | Isa.Insn.Gt -> not (t.icc_z || t.icc_n <> t.icc_v)
  | Isa.Insn.Le -> t.icc_z || t.icc_n <> t.icc_v
  | Isa.Insn.Ge -> t.icc_n = t.icc_v
  | Isa.Insn.Lt -> t.icc_n <> t.icc_v
  | Isa.Insn.Gu -> not (t.icc_c || t.icc_z)
  | Isa.Insn.Leu -> t.icc_c || t.icc_z

(* Front end: charge the pre-priced base cycles plus the icache line
   fill when the fetch misses.  Fetches of the line fetched last are
   guaranteed hits (only fetches access the icache), so they skip the
   tag probe and count the read directly. *)
let[@inline] front t base fetch fline =
  t.prof.Profiler.instructions <- t.prof.Profiler.instructions + 1;
  if fline = t.ilast then begin
    t.istats.Cache.reads <- t.istats.Cache.reads + 1;
    base
  end
  else begin
    t.ilast <- fline;
    if Cache.read t.icache fetch then base
    else begin
      t.prof.Profiler.icache_misses <- t.prof.Profiler.icache_misses + 1;
      base + t.cm.Cost_model.iline_fill
    end
  end

(* Commit: one pc store, one cycle-counter add. *)
let[@inline] commit t next c =
  t.pc <- next;
  t.prof.Profiler.cycles <- t.prof.Profiler.cycles + c

(* Dcache probe for a load: extra cycles beyond the pre-priced hit
   cost (0 on a hit, the line fill on a miss — which allocates, so the
   line ends most-recently-used either way). *)
let[@inline] dload_extra t addr =
  let line = addr lsr t.dshift in
  if line = t.dlast then begin
    t.dstats.Cache.reads <- t.dstats.Cache.reads + 1;
    0
  end
  else begin
    t.dlast <- line;
    if Cache.read t.dcache addr then 0
    else begin
      t.prof.Profiler.dcache_read_misses <-
        t.prof.Profiler.dcache_read_misses + 1;
      t.cm.Cost_model.dline_fill
    end
  end

let count_write_miss t =
  t.prof.Profiler.dcache_write_misses <- t.prof.Profiler.dcache_write_misses + 1

(* Dcache probe for a store: write-through, no allocate — the cost is
   static, only the replacement state and statistics are updated.  A
   write miss changes no cache state, so [dlast] stays valid. *)
let[@inline] dstore_probe t addr =
  let line = addr lsr t.dshift in
  if line = t.dlast then t.dstats.Cache.writes <- t.dstats.Cache.writes + 1
  else if Cache.write t.dcache addr then t.dlast <- line
  else count_write_miss t

(* Register-window spill/fill.  The 16 locals+ins of window [w] live in
   the 64-byte save area at that window's %sp, as laid out by the
   standard SPARC overflow/underflow handlers.  Rare, so they go
   through the plain cache entry points and invalidate [dlast]. *)
let window_sp t w =
  t.regs.(Isa.Reg.physical ~nwindows:t.nwin ~cwp:w Isa.Reg.sp)

let dcache_load_cost t addr =
  (match t.recorder with Some r -> Recording.fill r addr | None -> ());
  if Cache.read t.dcache addr then t.cm.Cost_model.load_extra
  else begin
    t.prof.Profiler.dcache_read_misses <- t.prof.Profiler.dcache_read_misses + 1;
    t.cm.Cost_model.dline_fill + t.cm.Cost_model.load_extra
  end

let dcache_store_cost t addr =
  (match t.recorder with Some r -> Recording.spill r addr | None -> ());
  if not (Cache.write t.dcache addr) then count_write_miss t;
  t.cm.Cost_model.store_extra

let count_load t = t.prof.Profiler.dcache_reads <- t.prof.Profiler.dcache_reads + 1
let count_store t = t.prof.Profiler.dcache_writes <- t.prof.Profiler.dcache_writes + 1

let spill_window t w =
  let sp = window_sp t w in
  let cost = ref Cost_model.trap_overhead in
  for k = 0 to 7 do
    let l = Isa.Reg.physical ~nwindows:t.nwin ~cwp:w (Isa.Reg.l k) in
    let i = Isa.Reg.physical ~nwindows:t.nwin ~cwp:w (Isa.Reg.i k) in
    count_store t;
    Memory.write_u32 t.mem (sp + (4 * k)) t.regs.(l);
    cost := !cost + 1 + dcache_store_cost t (sp + (4 * k));
    count_store t;
    Memory.write_u32 t.mem (sp + 32 + (4 * k)) t.regs.(i);
    cost := !cost + 1 + dcache_store_cost t (sp + 32 + (4 * k))
  done;
  t.dlast <- -1;
  !cost

let fill_window t w =
  let sp = window_sp t w in
  let cost = ref Cost_model.trap_overhead in
  for k = 0 to 7 do
    let l = Isa.Reg.physical ~nwindows:t.nwin ~cwp:w (Isa.Reg.l k) in
    let i = Isa.Reg.physical ~nwindows:t.nwin ~cwp:w (Isa.Reg.i k) in
    count_load t;
    t.regs.(l) <- Memory.read_u32 t.mem (sp + (4 * k));
    cost := !cost + 1 + dcache_load_cost t (sp + (4 * k));
    count_load t;
    t.regs.(i) <- Memory.read_u32 t.mem (sp + 32 + (4 * k));
    cost := !cost + 1 + dcache_load_cost t (sp + 32 + (4 * k))
  done;
  t.dlast <- -1;
  !cost

let[@inline] alu_result op a b =
  match op with
  | Isa.Insn.Add -> (a + b) land mask32
  | Isa.Insn.Sub -> (a - b) land mask32
  | Isa.Insn.And -> a land b
  | Isa.Insn.Or -> a lor b
  | Isa.Insn.Xor -> a lxor b
  | Isa.Insn.Sll -> (a lsl (b land 31)) land mask32
  | Isa.Insn.Srl -> a lsr (b land 31)
  | Isa.Insn.Sra -> (to_signed a asr (b land 31)) land mask32

let set_icc_arith t op a b res =
  set_nz t res;
  (match op with
  | Isa.Insn.Add ->
      t.icc_c <- a + b > mask32;
      t.icc_v <- lnot (a lxor b) land (a lxor res) land 0x80000000 <> 0
  | Isa.Insn.Sub ->
      t.icc_c <- a < b;
      t.icc_v <- (a lxor b) land (a lxor res) land 0x80000000 <> 0
  | Isa.Insn.And | Isa.Insn.Or | Isa.Insn.Xor | Isa.Insn.Sll | Isa.Insn.Srl
  | Isa.Insn.Sra ->
      t.icc_c <- false;
      t.icc_v <- false);
  ()

(* Compile one decoded instruction into its execute handler: the whole
   per-instruction path — front end, operand reads, the operation,
   commit — lives in one flat closure body, so executing an
   instruction is exactly one indirect call. *)
let compile t idx (d : Decode.insn) =
  let base = d.Decode.base_cycles in
  let fetch = d.Decode.fetch_addr in
  let fline = fetch lsr t.ishift in
  let fall = idx + 1 in
  let rd = d.Decode.rd in
  let rs1 = d.Decode.rs1 in
  let rs2 = d.Decode.rs2 in
  let imm = d.Decode.imm in
  let tgt = d.Decode.target in
  let prof = t.prof in
  match d.Decode.op with
  | Decode.Alu (op, cc) -> (
      let exec () =
        let c = front t base fetch fline in
        t.prev_set_icc <- cc;
        let a = rread t rs1 in
        let b = if rs2 >= 0 then rread t rs2 else imm in
        let res = alu_result op a b in
        if cc then set_icc_arith t op a b res;
        rwrite t rd res;
        commit t fall c
      in
      (* only shifts pay for the shift count *)
      match op with
      | Isa.Insn.Sll | Isa.Insn.Srl | Isa.Insn.Sra ->
          fun () ->
            prof.Profiler.shifts <- prof.Profiler.shifts + 1;
            exec ()
      | _ -> exec)
  | Decode.Sethi ->
      fun () ->
        let c = front t base fetch fline in
        t.prev_set_icc <- false;
        rwrite t rd imm;
        commit t fall c
  | Decode.Mul (signed, cc) ->
      fun () ->
        let c = front t base fetch fline in
        t.prev_set_icc <- cc;
        let a = rread t rs1 in
        let b = if rs2 >= 0 then rread t rs2 else imm in
        let res =
          if signed then to_signed a * to_signed b land mask32
          else a * b land mask32
        in
        if cc then begin
          set_nz t res;
          t.icc_v <- false;
          t.icc_c <- false
        end;
        rwrite t rd res;
        prof.Profiler.mults <- prof.Profiler.mults + 1;
        commit t fall c
  | Decode.Div signed ->
      fun () ->
        let c = front t base fetch fline in
        t.prev_set_icc <- false;
        let a = rread t rs1 in
        let b = if rs2 >= 0 then rread t rs2 else imm in
        if b = 0 then error "division by zero at pc %d" idx;
        let res =
          if signed then to_signed a / to_signed b land mask32
          else a / b land mask32
        in
        rwrite t rd res;
        prof.Profiler.divs <- prof.Profiler.divs + 1;
        commit t fall c
  | Decode.Load (width, signed) ->
      let use = d.Decode.load_use in
      let il = d.Decode.interlock in
      fun () ->
        let c = front t base fetch fline in
        t.prev_set_icc <- false;
        let addr =
          (rread t rs1 + if rs2 >= 0 then rread t rs2 else imm) land mask32
        in
        count_load t;
        let raw =
          match width with
          | Isa.Insn.Byte -> Memory.read_u8 t.mem addr
          | Isa.Insn.Half -> Memory.read_u16 t.mem addr
          | Isa.Insn.Word -> Memory.read_u32 t.mem addr
        in
        let v =
          if not signed then raw
          else
            match width with
            | Isa.Insn.Byte -> (raw lxor 0x80) - 0x80 land mask32
            | Isa.Insn.Half -> (raw lxor 0x8000) - 0x8000 land mask32
            | Isa.Insn.Word -> raw
        in
        rwrite t rd (v land mask32);
        let c = c + dload_extra t addr in
        (* load-delay interlock against an immediately dependent user;
           the dependence is static, priced at decode time, and counted
           whatever its price *)
        let c =
          if use then begin
            prof.Profiler.load_uses <- prof.Profiler.load_uses + 1;
            if il > 0 then begin
              prof.Profiler.load_interlocks <-
                prof.Profiler.load_interlocks + 1;
              c + il
            end
            else c
          end
          else c
        in
        commit t fall c
  | Decode.Store width ->
      fun () ->
        let c = front t base fetch fline in
        t.prev_set_icc <- false;
        let addr =
          (rread t rs1 + if rs2 >= 0 then rread t rs2 else imm) land mask32
        in
        let v = rread t rd in
        count_store t;
        (match width with
        | Isa.Insn.Byte -> Memory.write_u8 t.mem addr v
        | Isa.Insn.Half -> Memory.write_u16 t.mem addr v
        | Isa.Insn.Word -> Memory.write_u32 t.mem addr v);
        dstore_probe t addr;
        commit t fall c
  | Decode.Branch Isa.Insn.Always ->
      fun () ->
        let c = front t base fetch fline in
        t.prev_set_icc <- false;
        prof.Profiler.branches <- prof.Profiler.branches + 1;
        prof.Profiler.taken_branches <- prof.Profiler.taken_branches + 1;
        commit t tgt (c + 1)
  | Decode.Branch cond ->
      let icc_wait = d.Decode.icc_wait in
      let hold = t.cm.Cost_model.icc_stall in
      fun () ->
        let c = front t base fetch fline in
        let c =
          if icc_wait && t.prev_set_icc then begin
            prof.Profiler.icc_waits <- prof.Profiler.icc_waits + 1;
            if hold > 0 then begin
              prof.Profiler.icc_hold_stalls <-
                prof.Profiler.icc_hold_stalls + 1;
              c + hold
            end
            else c
          end
          else c
        in
        t.prev_set_icc <- false;
        prof.Profiler.branches <- prof.Profiler.branches + 1;
        if branch_taken t cond then begin
          prof.Profiler.taken_branches <- prof.Profiler.taken_branches + 1;
          commit t tgt (c + 1)
        end
        else commit t fall c
  | Decode.Call ->
      fun () ->
        let c = front t base fetch fline in
        t.prev_set_icc <- false;
        prof.Profiler.jumps <- prof.Profiler.jumps + 1;
        rwrite t rd idx;
        commit t tgt c
  | Decode.Jmpl ->
      fun () ->
        let c = front t base fetch fline in
        t.prev_set_icc <- false;
        prof.Profiler.jumps <- prof.Profiler.jumps + 1;
        let target =
          (rread t rs1 + if rs2 >= 0 then rread t rs2 else imm) land mask32
        in
        rwrite t rd idx;
        commit t target c
  | Decode.Save ->
      fun () ->
        let c = front t base fetch fline in
        t.prev_set_icc <- false;
        let res =
          (rread t rs1 + if rs2 >= 0 then rread t rs2 else imm) land mask32
        in
        let c =
          if t.resident = t.nwin - 1 then begin
            let oldest = (t.cwp + t.resident - 1) mod t.nwin in
            prof.Profiler.window_overflows <- prof.Profiler.window_overflows + 1;
            c + spill_window t oldest
          end
          else begin
            t.resident <- t.resident + 1;
            c
          end
        in
        t.cwp <- (if t.cwp = 0 then t.nwin - 1 else t.cwp - 1);
        rwrite t rd res;
        commit t fall c
  | Decode.Restore ->
      fun () ->
        let c = front t base fetch fline in
        t.prev_set_icc <- false;
        let res =
          (rread t rs1 + if rs2 >= 0 then rread t rs2 else imm) land mask32
        in
        let c =
          if t.resident = 1 then begin
            let caller = (t.cwp + 1) mod t.nwin in
            prof.Profiler.window_underflows <-
              prof.Profiler.window_underflows + 1;
            c + fill_window t caller
          end
          else begin
            t.resident <- t.resident - 1;
            c
          end
        in
        t.cwp <- (let c' = t.cwp + 1 in if c' = t.nwin then 0 else c');
        rwrite t rd res;
        commit t fall c
  | Decode.Nop ->
      fun () ->
        let c = front t base fetch fline in
        t.prev_set_icc <- false;
        commit t fall c
  | Decode.Halt ->
      fun () ->
        let c = front t base fetch fline in
        t.prev_set_icc <- false;
        t.halted <- true;
        commit t fall c

(* The recording copy of one handler: redirects of the fetch stream,
   and the address of every load and store, read before the handler
   runs (a load may overwrite its own address register). *)
let hooked t r idx (d : Decode.insn) h =
  let rs1 = d.Decode.rs1 and rs2 = d.Decode.rs2 and imm = d.Decode.imm in
  let addr () =
    (rread t rs1 + if rs2 >= 0 then rread t rs2 else imm) land mask32
  in
  match d.Decode.op with
  | Decode.Load _ ->
      fun () ->
        let a = addr () in
        h ();
        Recording.load r a
  | Decode.Store _ ->
      fun () ->
        let a = addr () in
        h ();
        Recording.store r a
  | Decode.Branch _ | Decode.Call | Decode.Jmpl ->
      fun () ->
        h ();
        if t.pc <> idx + 1 then Recording.jump r ~from:idx ~target:t.pc
  | _ -> h

let install t decoded =
  t.plain <- Array.mapi (compile t) decoded;
  t.handlers <-
    (match t.recorder with
    | None -> t.plain
    | Some r -> Array.mapi (fun idx h -> hooked t r idx decoded.(idx) h) t.plain)

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let create ?(shift_stall = 0) ?recorder config prog ~mem_size =
  (match Arch.Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cpu.create: " ^ msg));
  let data_end = Isa.Program.data_end prog in
  if mem_size < data_end + 4096 then
    error "data image and stack need %d bytes, memory holds %d"
      (data_end + 4096) mem_size;
  let iu = config.Arch.Config.iu in
  let cm = Cost_model.of_arch_config ~shift_stall config in
  let icache = Cache.fresh Cache.Instruction config.Arch.Config.icache in
  let dcache = Cache.fresh Cache.Data config.Arch.Config.dcache in
  let t =
    {
      config;
      prog;
      cm;
      regs = Array.make (Isa.Reg.file_size ~nwindows:iu.reg_windows) 0;
      nwin = iu.reg_windows;
      wsize = iu.reg_windows * 16;
      cwp = 0;
      resident = 1;
      pc = prog.Isa.Program.entry;
      halted = false;
      icc_n = false;
      icc_z = false;
      icc_v = false;
      icc_c = false;
      prev_set_icc = false;
      ilast = -1;
      dlast = -1;
      ishift = log2 (Cache.line_bytes icache);
      dshift = log2 (Cache.line_bytes dcache);
      mem = Memory.create ~size:mem_size;
      icache;
      dcache;
      istats = Cache.stats icache;
      dstats = Cache.stats dcache;
      prof = Profiler.create ();
      recorder;
      handlers = [||];
      plain = [||];
    }
  in
  install t (Decode.of_program cm prog);
  Memory.load_image t.mem ~at:Isa.Program.data_base prog.Isa.Program.data;
  let sp = mem_size - 128 in
  t.regs.(Isa.Reg.physical ~nwindows:t.nwin ~cwp:0 Isa.Reg.sp) <- sp;
  t

let reinit t =
  Array.fill t.regs 0 (Array.length t.regs) 0;
  t.cwp <- 0;
  t.resident <- 1;
  t.pc <- t.prog.Isa.Program.entry;
  t.halted <- false;
  t.icc_n <- false;
  t.icc_z <- false;
  t.icc_v <- false;
  t.icc_c <- false;
  t.prev_set_icc <- false;
  Memory.clear t.mem;
  Memory.load_image t.mem ~at:Isa.Program.data_base t.prog.Isa.Program.data;
  t.regs.(Isa.Reg.physical ~nwindows:t.nwin ~cwp:0 Isa.Reg.sp) <-
    Memory.size t.mem - 128

(* Runtime reconfiguration: swap the microarchitecture under a live
   execution.  Architectural state (registers, memory, pc, windows,
   condition codes) is untouched — only the cost model, the caches and
   the pre-compiled handlers change.  A cache whose geometry is
   unchanged may keep its contents ([keep_caches], modelling partial
   reconfiguration that leaves that region's block RAM intact);
   otherwise it restarts cold with its standard deterministic seed.
   The register-window file is structural (it holds live architectural
   state), so its size cannot change at runtime. *)
let reconfigure ?(shift_stall = 0) ?(keep_caches = false) t config =
  (match Arch.Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cpu.reconfigure: " ^ msg));
  if
    config.Arch.Config.iu.Arch.Config.reg_windows
    <> t.config.Arch.Config.iu.Arch.Config.reg_windows
  then invalid_arg "Cpu.reconfigure: register-window count is not runtime-reconfigurable";
  if Option.is_some t.recorder then
    invalid_arg "Cpu.reconfigure: a recorded execution cannot be reconfigured";
  let keep old_cfg new_cfg old_cache side =
    if keep_caches && old_cfg = new_cfg then old_cache
    else Cache.fresh side new_cfg
  in
  let icache =
    keep t.config.Arch.Config.icache config.Arch.Config.icache t.icache
      Cache.Instruction
  in
  let dcache =
    keep t.config.Arch.Config.dcache config.Arch.Config.dcache t.dcache
      Cache.Data
  in
  t.config <- config;
  t.cm <- Cost_model.of_arch_config ~shift_stall config;
  t.icache <- icache;
  t.dcache <- dcache;
  t.istats <- Cache.stats icache;
  t.dstats <- Cache.stats dcache;
  t.ishift <- log2 (Cache.line_bytes icache);
  t.dshift <- log2 (Cache.line_bytes dcache);
  t.ilast <- -1;
  t.dlast <- -1;
  install t (Decode.of_program t.cm t.prog)

let step_unchecked t =
  if t.halted then false
  else begin
    let h = t.handlers in
    let idx = t.pc in
    if idx < 0 || idx >= Array.length h then
      error "pc %d outside program (0..%d)" idx (Array.length h - 1);
    (Array.unsafe_get h idx) ();
    not t.halted
  end

(* A memory fault surfaces as the typed [Error] at the run entry
   points, one handler per call rather than one per instruction; the
   faulting instruction has not committed, so [t.pc] still names it. *)
let guarded t f =
  try f () with Memory.Fault m -> error "memory fault at pc %d: %s" t.pc m

let step t = guarded t (fun () -> step_unchecked t)

let run ?(max_insns = 200_000_000) t =
  guarded t @@ fun () ->
  let budget = ref max_insns in
  let continue = ref (not t.halted) in
  match t.recorder with
  | None ->
      while !continue do
        if !budget <= 0 then error "instruction budget exhausted";
        decr budget;
        continue := step_unchecked t
      done
  | Some r ->
      (* a recorded run marks a window at every multiple of the
         recorder's window that it runs past *)
      let window = Recording.window r in
      let next = ref window in
      while !continue do
        if !budget <= 0 then error "instruction budget exhausted";
        decr budget;
        continue := step_unchecked t;
        if !continue && t.prof.Profiler.instructions = !next then begin
          Recording.mark r ~pc:t.pc ~profile:t.prof;
          next := !next + window
        end
      done

(* Run until the profiler has retired [insns] instructions in total
   (each step retires exactly one), or the program halts first. *)
let run_until t ~insns =
  guarded t @@ fun () ->
  let continue = ref (not t.halted) in
  while !continue && t.prof.Profiler.instructions < insns do
    continue := step_unchecked t
  done

let profile t = t.prof
let reset_profile t = Profiler.reset t.prof
let result t = read_reg t (Isa.Reg.o 0)
let pc t = t.pc
let halted t = t.halted
let mem t = t.mem
let program t = t.prog
let icache t = t.icache
let dcache t = t.dcache

let stop_recording t =
  Option.iter
    (fun r ->
      Recording.seal r ~pc:t.pc ~profile:t.prof;
      t.recorder <- None;
      t.handlers <- t.plain)
    t.recorder

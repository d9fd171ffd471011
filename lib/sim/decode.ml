(* Decode-once program representation.

   Each static instruction is resolved exactly once per {!Cpu.create}
   into a flat record: operand registers and pre-masked immediates,
   the instruction class, and [base_cycles] with every deterministic
   stall already priced in from the {!Cost_model} table (shift/mul/div
   latencies, slow decode on control transfers, slow jump on
   call/return).  Dynamic costs — line fills, the ICC hold against the
   previous instruction, window traps, the taken-branch redirect —
   remain runtime decisions, but their trigger conditions are
   precomputed where static ([icc_wait], [load_use] and its load-delay
   [interlock] against the textually next instruction). *)

let m_programs =
  Obs.Metrics.Counter.v "sim.decode.programs"
    ~help:"programs pre-decoded for direct-threaded execution"

let m_insns =
  Obs.Metrics.Counter.v "sim.decode.insns"
    ~help:"static instructions pre-decoded"

let mask32 = 0xFFFFFFFF

type op =
  | Alu of Isa.Insn.alu_op * bool  (* op, sets cc *)
  | Sethi  (* [imm] holds the pre-shifted, pre-masked value *)
  | Mul of bool * bool  (* signed, sets cc *)
  | Div of bool  (* signed *)
  | Load of Isa.Insn.width * bool  (* width, sign-extending *)
  | Store of Isa.Insn.width
  | Branch of Isa.Insn.cond
  | Call
  | Jmpl
  | Save
  | Restore
  | Nop
  | Halt

type insn = {
  op : op;
  rd : int;
  rs1 : int;
  rs2 : int;  (* -1: the second operand is [imm] *)
  imm : int;  (* already masked to 32 bits *)
  target : int;  (* branch/call target (instruction index) *)
  base_cycles : int;  (* 1 + all deterministic stalls *)
  fetch_addr : int;  (* byte address of the fetch, [4 * index] *)
  sets_icc : bool;
  icc_wait : bool;  (* reads the condition codes: an ICC-hold candidate *)
  load_use : bool;  (* a load whose next insn reads [rd] *)
  interlock : int;  (* load-delay stall iff [load_use] *)
}

let no_reg = -1

let split_op2 = function
  | Isa.Insn.Reg r -> (r, 0)
  | Isa.Insn.Imm i -> (no_reg, i land mask32)

let of_insn (cm : Cost_model.t) code idx insn =
  let rd, rs1, (rs2, imm), target, op, base_cycles =
    match insn with
    | Isa.Insn.Alu { op; cc; rd; rs1; op2 } ->
        let base =
          match op with
          | Isa.Insn.Sll | Isa.Insn.Srl | Isa.Insn.Sra ->
              Cost_model.shift_cycles cm
          | _ -> Cost_model.alu_cycles cm
        in
        (rd, rs1, split_op2 op2, 0, Alu (op, cc), base)
    | Isa.Insn.Sethi { rd; imm } ->
        (rd, 0, (no_reg, (imm lsl 11) land mask32), 0, Sethi, 1)
    | Isa.Insn.Mul { signed; cc; rd; rs1; op2 } ->
        (rd, rs1, split_op2 op2, 0, Mul (signed, cc), Cost_model.mul_cycles cm)
    | Isa.Insn.Div { signed; rd; rs1; op2 } ->
        (rd, rs1, split_op2 op2, 0, Div signed, Cost_model.div_cycles cm)
    | Isa.Insn.Load { width; signed; rd; rs1; op2 } ->
        ( rd,
          rs1,
          split_op2 op2,
          0,
          Load (width, signed),
          Cost_model.load_hit_cycles cm )
    | Isa.Insn.Store { width; rs; rs1; op2 } ->
        (rs, rs1, split_op2 op2, 0, Store width, Cost_model.store_cycles cm)
    | Isa.Insn.Branch { cond; target } ->
        (0, 0, (no_reg, 0), target, Branch cond, Cost_model.branch_cycles cm)
    | Isa.Insn.Call { target } ->
        (Isa.Reg.ra, 0, (no_reg, 0), target, Call, Cost_model.jump_cycles cm)
    | Isa.Insn.Jmpl { rd; rs1; op2 } ->
        (rd, rs1, split_op2 op2, 0, Jmpl, Cost_model.jump_cycles cm)
    | Isa.Insn.Save { rd; rs1; op2 } ->
        (rd, rs1, split_op2 op2, 0, Save, Cost_model.save_cycles cm)
    | Isa.Insn.Restore { rd; rs1; op2 } ->
        (rd, rs1, split_op2 op2, 0, Restore, Cost_model.restore_cycles cm)
    | Isa.Insn.Nop -> (0, 0, (no_reg, 0), 0, Nop, 1)
    | Isa.Insn.Halt -> (0, 0, (no_reg, 0), 0, Halt, Cost_model.halt_cycles cm)
  in
  (* Load-delay interlock against an immediately dependent user: loads
     always fall through to [idx + 1], so the check is fully static. *)
  let load_use =
    match insn with
    | Isa.Insn.Load { rd; _ } ->
        rd <> 0
        && idx + 1 < Array.length code
        && List.mem rd (Isa.Insn.reads code.(idx + 1))
    | _ -> false
  in
  {
    op;
    rd;
    rs1;
    rs2;
    imm;
    target;
    base_cycles;
    fetch_addr = idx * 4;
    sets_icc = Isa.Insn.sets_icc insn;
    icc_wait = Isa.Insn.uses_icc insn;
    load_use;
    interlock = (if load_use then cm.Cost_model.interlock else 0);
  }

let of_program cm (prog : Isa.Program.t) =
  let code = prog.Isa.Program.code in
  Obs.Metrics.Counter.incr m_programs;
  Obs.Metrics.Counter.incr ~by:(Array.length code) m_insns;
  Array.mapi (fun idx insn -> of_insn cm code idx insn) code

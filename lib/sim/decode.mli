(** Decode-once program representation for the direct-threaded core.

    {!of_program} resolves each static instruction into a flat record:
    operands, pre-masked immediate, class, and [base_cycles] with all
    deterministic stalls pre-priced from the shared {!Cost_model}
    table.  Only genuinely dynamic costs (cache line fills, the ICC
    hold, window traps, the taken-branch redirect) are left to the
    execute handlers in {!Cpu}. *)

type op =
  | Alu of Isa.Insn.alu_op * bool  (** op, sets cc *)
  | Sethi  (** [imm] holds the pre-shifted, pre-masked value *)
  | Mul of bool * bool  (** signed, sets cc *)
  | Div of bool  (** signed *)
  | Load of Isa.Insn.width * bool  (** width, sign-extending *)
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
  rd : int;  (** destination (source for stores) *)
  rs1 : int;
  rs2 : int;  (** [-1] when the second operand is [imm] *)
  imm : int;  (** masked to 32 bits *)
  target : int;  (** branch/call target, instruction index *)
  base_cycles : int;  (** 1 + every deterministic stall *)
  fetch_addr : int;  (** byte address of the fetch, [4 * index] *)
  sets_icc : bool;
  icc_wait : bool;
      (** reads the condition codes, so it waits under the ICC-hold
          interlock when the previous instruction wrote them *)
  load_use : bool;
      (** a load whose textually next instruction reads its
          destination *)
  interlock : int;
      (** load-delay stall charged when [load_use]; 0 otherwise *)
}

val of_program : Cost_model.t -> Isa.Program.t -> insn array
(** Bumps the [sim.decode.programs] / [sim.decode.insns] counters. *)

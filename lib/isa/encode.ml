exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* Major opcodes (6 bits).  ALU operations occupy two 8-slot banks
   (plain and condition-code-setting); everything else has one slot. *)
let op_smul = 0x02
let op_umul = 0x03
let op_smul_cc = 0x04
let op_umul_cc = 0x05
let op_sdiv = 0x06
let op_udiv = 0x07
let op_ld_b = 0x08
let op_ld_bs = 0x09
let op_ld_h = 0x0A
let op_ld_hs = 0x0B
let op_ld_w = 0x0C
let op_st_b = 0x0D
let op_st_h = 0x0E
let op_st_w = 0x0F
let op_jmpl = 0x10
let op_save = 0x11
let op_restore = 0x12
let op_sethi = 0x13
let op_branch = 0x14
let op_call = 0x15
let op_nop = 0x16
let op_halt = 0x17

let alu_op_code = function
  | Insn.Add -> 0
  | Insn.Sub -> 1
  | Insn.And -> 2
  | Insn.Or -> 3
  | Insn.Xor -> 4
  | Insn.Sll -> 5
  | Insn.Srl -> 6
  | Insn.Sra -> 7

let alu_op_of_code = function
  | 0 -> Insn.Add
  | 1 -> Insn.Sub
  | 2 -> Insn.And
  | 3 -> Insn.Or
  | 4 -> Insn.Xor
  | 5 -> Insn.Sll
  | 6 -> Insn.Srl
  | 7 -> Insn.Sra
  | c -> error "invalid alu sub-opcode %d" c

let cond_code = function
  | Insn.Always -> 0
  | Insn.Eq -> 1
  | Insn.Ne -> 2
  | Insn.Gt -> 3
  | Insn.Le -> 4
  | Insn.Ge -> 5
  | Insn.Lt -> 6
  | Insn.Gu -> 7
  | Insn.Leu -> 8

let cond_of_code = function
  | 0 -> Insn.Always
  | 1 -> Insn.Eq
  | 2 -> Insn.Ne
  | 3 -> Insn.Gt
  | 4 -> Insn.Le
  | 5 -> Insn.Ge
  | 6 -> Insn.Lt
  | 7 -> Insn.Gu
  | 8 -> Insn.Leu
  | c -> error "invalid condition code %d" c

let check_reg r =
  if r < 0 || r > 31 then error "register %d out of range" r

let op_alu_base = 0x20 (* 0x20..0x27: Add..Sra, no cc *)
let op_alu_cc_base = 0x28 (* 0x28..0x2F: Add..Sra, cc *)

let encode insn =
  let f3 op rd rs1 op2 =
    check_reg rd;
    check_reg rs1;
    let base = (op lsl 26) lor (rd lsl 21) lor (rs1 lsl 16) in
    match op2 with
    | Insn.Reg rs2 ->
        check_reg rs2;
        base lor rs2
    | Insn.Imm v ->
        if v < -16384 || v > 16383 then error "immediate %d exceeds simm15" v;
        base lor (1 lsl 15) lor (v land 0x7FFF)
  in
  let word =
    match insn with
    | Insn.Alu { op; cc; rd; rs1; op2 } ->
        let major = (if cc then op_alu_cc_base else op_alu_base) + alu_op_code op in
        f3 major rd rs1 op2
    | Insn.Mul { signed; cc; rd; rs1; op2 } ->
        let major =
          match (signed, cc) with
          | true, false -> op_smul
          | false, false -> op_umul
          | true, true -> op_smul_cc
          | false, true -> op_umul_cc
        in
        f3 major rd rs1 op2
    | Insn.Div { signed; rd; rs1; op2 } ->
        f3 (if signed then op_sdiv else op_udiv) rd rs1 op2
    | Insn.Load { width; signed; rd; rs1; op2 } ->
        let major =
          match (width, signed) with
          | Insn.Byte, false -> op_ld_b
          | Insn.Byte, true -> op_ld_bs
          | Insn.Half, false -> op_ld_h
          | Insn.Half, true -> op_ld_hs
          | Insn.Word, _ -> op_ld_w
        in
        f3 major rd rs1 op2
    | Insn.Store { width; rs; rs1; op2 } ->
        let major =
          match width with
          | Insn.Byte -> op_st_b
          | Insn.Half -> op_st_h
          | Insn.Word -> op_st_w
        in
        f3 major rs rs1 op2
    | Insn.Jmpl { rd; rs1; op2 } -> f3 op_jmpl rd rs1 op2
    | Insn.Save { rd; rs1; op2 } -> f3 op_save rd rs1 op2
    | Insn.Restore { rd; rs1; op2 } -> f3 op_restore rd rs1 op2
    | Insn.Sethi { rd; imm } ->
        check_reg rd;
        if imm < 0 || imm > 0x1FFFFF then error "sethi immediate %d exceeds 21 bits" imm;
        (op_sethi lsl 26) lor (rd lsl 21) lor imm
    | Insn.Branch { cond; target } ->
        if target < 0 || target > 0x3FFFFF then
          error "branch target %d exceeds 22 bits" target;
        (op_branch lsl 26) lor (cond_code cond lsl 22) lor target
    | Insn.Call { target } ->
        if target < 0 || target > 0x3FFFFFF then
          error "call target %d exceeds 26 bits" target;
        (op_call lsl 26) lor target
    | Insn.Nop -> op_nop lsl 26
    | Insn.Halt -> op_halt lsl 26
  in
  Int32.of_int (word land 0xFFFFFFFF)

let decode word =
  let w = Int32.to_int word land 0xFFFFFFFF in
  let op = w lsr 26 in
  let rd = (w lsr 21) land 0x1F in
  let rs1 = (w lsr 16) land 0x1F in
  let op2 =
    if (w lsr 15) land 1 = 1 then
      let v = w land 0x7FFF in
      Insn.Imm (if v land 0x4000 <> 0 then v - 0x8000 else v)
    else Insn.Reg (w land 0x1F)
  in
  if op >= op_alu_base && op < op_alu_base + 8 then
    Insn.Alu { op = alu_op_of_code (op - op_alu_base); cc = false; rd; rs1; op2 }
  else if op >= op_alu_cc_base && op < op_alu_cc_base + 8 then
    Insn.Alu { op = alu_op_of_code (op - op_alu_cc_base); cc = true; rd; rs1; op2 }
  else if op = op_smul then Insn.Mul { signed = true; cc = false; rd; rs1; op2 }
  else if op = op_umul then Insn.Mul { signed = false; cc = false; rd; rs1; op2 }
  else if op = op_smul_cc then Insn.Mul { signed = true; cc = true; rd; rs1; op2 }
  else if op = op_umul_cc then Insn.Mul { signed = false; cc = true; rd; rs1; op2 }
  else if op = op_sdiv then Insn.Div { signed = true; rd; rs1; op2 }
  else if op = op_udiv then Insn.Div { signed = false; rd; rs1; op2 }
  else if op = op_ld_b then Insn.Load { width = Insn.Byte; signed = false; rd; rs1; op2 }
  else if op = op_ld_bs then Insn.Load { width = Insn.Byte; signed = true; rd; rs1; op2 }
  else if op = op_ld_h then Insn.Load { width = Insn.Half; signed = false; rd; rs1; op2 }
  else if op = op_ld_hs then Insn.Load { width = Insn.Half; signed = true; rd; rs1; op2 }
  else if op = op_ld_w then Insn.Load { width = Insn.Word; signed = false; rd; rs1; op2 }
  else if op = op_st_b then Insn.Store { width = Insn.Byte; rs = rd; rs1; op2 }
  else if op = op_st_h then Insn.Store { width = Insn.Half; rs = rd; rs1; op2 }
  else if op = op_st_w then Insn.Store { width = Insn.Word; rs = rd; rs1; op2 }
  else if op = op_jmpl then Insn.Jmpl { rd; rs1; op2 }
  else if op = op_save then Insn.Save { rd; rs1; op2 }
  else if op = op_restore then Insn.Restore { rd; rs1; op2 }
  else if op = op_sethi then Insn.Sethi { rd; imm = w land 0x1FFFFF }
  else if op = op_branch then
    Insn.Branch { cond = cond_of_code ((w lsr 22) land 0xF); target = w land 0x3FFFFF }
  else if op = op_call then Insn.Call { target = w land 0x3FFFFFF }
  else if op = op_nop then Insn.Nop
  else if op = op_halt then Insn.Halt
  else error "invalid opcode %#x" op

(* --- program images --- *)

let magic = 0x4C4E5543 (* "CUNL" *)

let encode_program (p : Program.t) =
  let buf = Buffer.create 4096 in
  let u32 v = Buffer.add_int32_le buf (Int32.of_int (v land 0xFFFFFFFF)) in
  u32 magic;
  u32 p.Program.entry;
  u32 (Array.length p.Program.code);
  Array.iter (fun insn -> Buffer.add_int32_le buf (encode insn)) p.Program.code;
  u32 (Bytes.length p.Program.data);
  Buffer.add_bytes buf p.Program.data;
  u32 (List.length p.Program.symbols);
  List.iter
    (fun (name, addr) ->
      u32 (String.length name);
      Buffer.add_string buf name;
      u32 addr)
    p.Program.symbols;
  Buffer.to_bytes buf

let decode_program bytes =
  let pos = ref 0 in
  let need n =
    if !pos + n > Bytes.length bytes then error "truncated program image"
  in
  let u32 () =
    need 4;
    let v = Int32.to_int (Bytes.get_int32_le bytes !pos) land 0xFFFFFFFF in
    pos := !pos + 4;
    v
  in
  if u32 () <> magic then error "bad magic";
  let entry = u32 () in
  let ncode = u32 () in
  need (4 * ncode);
  let code =
    Array.init ncode (fun _ ->
        need 4;
        let w = Bytes.get_int32_le bytes !pos in
        pos := !pos + 4;
        decode w)
  in
  let ndata = u32 () in
  need ndata;
  let data = Bytes.sub bytes !pos ndata in
  pos := !pos + ndata;
  let nsyms = u32 () in
  let symbols =
    List.init nsyms (fun _ ->
        let len = u32 () in
        need len;
        let name = Bytes.sub_string bytes !pos len in
        pos := !pos + len;
        let addr = u32 () in
        (name, addr))
  in
  { Program.code; entry; data; symbols }

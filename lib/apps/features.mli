(** Static workload features, extracted without running anything.

    The paper's method spends a synthesis-plus-run build per probed
    configuration; some probes are statically useless — enlarging an
    instruction cache the whole program already fits in, or swapping
    multiplier variants under a program that never multiplies.  This
    module computes the features such arguments need from the source
    AST and the compiled binary; the DSE stack's coordinate descent
    uses them to prune perturbations, and [appinfo] prints them. *)

type mix = {
  total : int;
  alu : int;  (** ALU ops and [sethi] *)
  mul : int;
  div : int;
  load : int;
  store : int;
  branch : int;  (** conditional and unconditional branches *)
  call : int;  (** calls, indirect jumps, window save/restore *)
  other : int;
}
(** Static instruction counts over the code segment. *)

type t = {
  code_bytes : int;  (** code segment size: 4 bytes per instruction *)
  data_bytes : int;  (** data segment size (globals, both kinds) *)
  word_array_bytes : int;  (** footprint of word arrays *)
  byte_array_bytes : int;  (** footprint of byte arrays *)
  mix : mix;
  max_loop_depth : int;  (** deepest loop nest in any function *)
  loops : int;
      (** static loop count after level-0 optimization (what
          {!Minic.Bounds} analyses) *)
  bounded_loops : int;
      (** of those, loops with a finite worst-case trip bound — when
          [bounded_loops = loops] the whole program has a finite
          static worst-case cycle bound *)
  call_depth : int option;
      (** deepest call nesting from [main] ([main] itself = 0), or
          [None] when the call graph has a reachable cycle *)
  stack_bytes : int option;
      (** stack bound: one 96-byte frame per nesting level *)
}

val of_program : Minic.Ast.program -> Isa.Program.t -> t
val of_app : Registry.t -> t
(** Features of a registered app (forces its compiled program). *)

val mul_free : t -> bool
(** No multiply instruction anywhere in the binary. *)

val div_free : t -> bool

val code_resident_kb : t -> int
(** Smallest power-of-two way size (in KB) that holds the whole code
    segment — an icache way at least this large never misses after
    warmup, and never conflicts. *)

val pp : Format.formatter -> t -> unit

(** Benchmark II — CommBench DRR (deficit round robin scheduling).

    256 packet queues with per-queue deficit counters are filled from a
    synthetic trace generated in-program (the LCG multiply mirrors the
    trace handling of the original benchmark) and then served in
    deficit-round-robin order with a small quantum, so a packet's queue
    head is revisited over several rounds.  Each round walks all queue
    heads — a working set of ~20 KB that is re-used round after round,
    giving the strong data-cache sensitivity the paper measures for
    DRR. *)

val program : Minic.Ast.program
(** The paper's Benchmark II instance: 256 queues x 16 slots,
    quantum 400, 3072 packets. *)

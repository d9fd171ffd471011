(** Persistent domain pool with work-stealing scheduling.

    Model building, exhaustive sweeps and the evaluation engine all fan
    out repeatedly, so spawning domains per call would pay start-up
    cost and risk oversubscription with every new client.  This pool
    spawns its worker domains once and keeps them parked on a
    condition variable between batches.

    Scheduling is work-stealing: each worker owns a deque, submitted
    tasks are distributed round-robin, a worker pops its own newest
    task (LIFO) and steals the oldest (FIFO) from a sibling when its
    deque runs dry.  The submitting caller also executes tasks while
    it waits, which (a) adds one unit of parallelism and (b) makes
    nested batches — a task that itself submits a batch, e.g. the
    parallel BINLP solver invoked from inside an Engine evaluation —
    deadlock free.  A nested submitter is recognized via domain-local
    storage and helps from its own deque LIFO-first, like the worker
    loop, instead of only stealing.

    Worker exceptions are re-raised in the submitter with their
    original backtraces ({!Printexc.raise_with_backtrace}).

    Observability: every batch opens a [pool.batch] span (items and
    worker count as attributes), every executed task — including
    singleton batches and {!run_inline} fallbacks that never touch a
    deque — bumps the [dse.pool.tasks] counter, and [dse.pool.workers]
    gauges the pool size (1 when only inline execution happened). *)

type t

val create : ?workers:int -> unit -> t
(** Spawn a pool of [workers] domains (default
    [Domain.recommended_domain_count () - 1], at least 1).
    @raise Invalid_argument if [workers < 1]. *)

val default : unit -> t
(** The shared process-wide pool, created on first use and joined via
    [at_exit].  All library clients fan out through {!Engine.map}, which
    picks this instance on multi-core hosts. *)

val size : t -> int
(** Worker-domain count.  The submitting caller also runs tasks, so
    effective parallelism is [size t + 1]. *)

val run_batch : t -> (unit -> unit) list -> unit
(** Execute every task to completion.  If any task raised, the first
    exception (in completion order) is re-raised with its backtrace
    after the batch drains; remaining tasks of the batch are skipped
    (not started) once a failure is recorded. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map on the pool.  Singleton and empty
    lists run inline (still counted as pool tasks). *)

val solver_runner : t -> Optim.Binlp.runner
(** Adapt the pool to {!Optim.Binlp.solve}'s injected execution
    backend ([optim] sits below [dse] and cannot name the pool
    directly).  [workers] is {!size}, so a one-worker pool — the
    default on a single-core host — makes the solver take its inline
    sequential path. *)

val run_inline : (unit -> 'a) -> 'a
(** Run a task on the calling domain, counted against
    [dse.pool.tasks]; sets [dse.pool.workers] to 1 if no pool was ever
    created.  Clients use this for their single-core fallback paths so
    pool metrics stay truthful when no domains are spawned. *)

val shutdown : t -> unit
(** Stop and join the workers (idempotent).  Only needed for pools
    created explicitly in tests; {!default} shuts itself down at
    process exit. *)

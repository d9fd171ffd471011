(** Exact branch-and-bound solver for SOS1-structured binary integer
    (non)linear programs — the role TOMLAB /MINLP plays in the paper.

    The problem shape is the paper's Section 4 formulation:

    - binary decision variables [x_0 .. x_{nvars-1}];
    - disjoint SOS1 groups: at most one variable of each group may be 1
      (variables in no group are free binaries);
    - a linear objective to minimize;
    - constraints that are sums of {e terms} compared to a bound, where
      each term is linear ([a.x + a0]) or a {e product} of two linear
      forms — the paper's cache-resource constraint
      [(1 + x1 + 2 x2 + 3 x3) * (sum lambda_i x_i) + ... <= L] needs one
      product term per cache plus linear remainder terms.

    The search enumerates one option per group (including "none"),
    pruning with an admissible objective bound and per-constraint
    interval bounds; leaves are checked exactly, so the returned
    solution is a true optimum.

    {2 Compiled problem}

    Each solve compiles its problem once into flat arrays: every linear
    factor of a term (constraint terms in order, then objective terms)
    gets an id, each variable a column of the factors it has a non-zero
    coefficient in, and each factor its per-depth interval bounds over
    the groups still open.  Choosing or un-choosing a variable then
    updates only the factors in its column, and the bounds at a node
    read the arrays without allocating.  The compiled problem is
    read-only and shared by every subtree task; a task owns only its
    assignment, its factor values and its counters.

    {2 Tie-break rule}

    Equally-optimal assignments are ordered by the {e pinned
    tie-break}: the winner is the lexicographically-smallest
    assignment — comparing [x.(0), x.(1), ...] with [false < true] —
    among those with the (bit-exactly) minimal objective, where every
    candidate's objective is recomputed in variable-index order at the
    leaf.  {!solve}, {!brute_force} and the parallel search all apply
    the same rule, so the winner is independent of exploration order
    and worker count, and differential tests may compare assignments,
    not just objectives.

    {2 Parallel search}

    [solve ~runner] splits the group tree at a shallow frontier
    (depth <= 3) into independent subtree tasks and executes them on
    [runner] (in practice [Dse.Pool.solver_runner], a work-stealing
    domain pool).  All tasks share one atomic incumbent: a feasible
    leaf is installed by compare-and-swap under the tie-break order
    above, and every node reads the incumbent objective for bound
    pruning, so late tasks inherit the cuts of early ones.  With
    [runner.workers <= 1] (a single-core host, or no runner) the solve
    runs inline on the calling domain as a single task — the exact
    sequential algorithm.  The returned winner is deterministic and
    identical for every worker count; node/prune {e counts} are
    scheduling-dependent under real parallelism. *)

type rel = Le | Ge

type lin = { coeffs : (int * float) list; const : float }
(** [a.x + const] with sparse coefficients. *)

type term = Lin of lin | Prod of lin * lin

type constr = { terms : term list; rel : rel; bound : float }

val linear : lin -> rel -> float -> constr
val product : lin -> lin -> rel -> float -> constr

type problem = {
  nvars : int;
  objective : float array;
  groups : int list list;   (** disjoint variable index lists *)
  constraints : constr list;
}

type solution = { x : bool array; objective : float }

type status =
  | Optimal  (** the search ran to completion; [best] is a true optimum *)
  | Node_limit_reached
      (** the node budget ran out; [best] is the incumbent found so
          far (graceful degradation), or [None] if no feasible point
          was reached in budget *)

type outcome = {
  best : solution option;  (** [None] iff no feasible point was found *)
  status : status;
  nodes : int;  (** branch-and-bound nodes explored (all tasks) *)
}

type runner = {
  workers : int;
      (** parallelism to split the search for; [<= 1] solves inline *)
  run_batch : (unit -> unit) list -> unit;
      (** execute every task to completion (the calling domain may
          participate); tasks never raise *)
}
(** Execution backend for the parallel search, injected so [optim]
    stays independent of the domain-pool layer.
    [Dse.Pool.solver_runner] adapts a {!Dse.Pool.t}. *)

val inline_runner : runner
(** The default: a single task on the calling domain. *)

val solve :
  ?node_limit:int ->
  ?runner:runner ->
  ?objective_terms:term list ->
  problem ->
  outcome
(** Minimize.  [outcome.best = None] means no assignment satisfies the
    constraints.  When the search exceeds [node_limit] nodes (default
    20 million — far beyond the paper's 52-variable model) it stops
    cooperatively — under parallel execution the limit is approximate
    by at most [workers * 128] nodes — and returns the incumbent with
    [Node_limit_reached] instead of discarding it.

    [objective_terms] (default empty) adds non-separable terms to the
    minimized objective: the objective becomes
    [objective . x + sum_t eval t x], with each term linear or a
    product of two linear forms — the shape the schedule formulation's
    pairwise switch costs need.  Terms are bounded during search by
    the same interval arithmetic as product constraints, so pruning
    stays admissible; with an empty list the search (including node
    counts and the tie-break) is bit-identical to the plain linear
    solve.  The reported [solution.objective] includes the terms.
    @raise Invalid_argument on malformed input (overlapping groups,
    indices out of range). *)

val brute_force : ?objective_terms:term list -> problem -> solution option
(** Reference implementation enumerating every SOS1-respecting
    assignment, applying the same tie-break rule (and the same
    [objective_terms] semantics) as {!solve}; for testing on small
    instances. *)

val eval_lin : lin -> bool array -> float
val eval_constr_lhs : constr -> bool array -> float
val check : problem -> bool array -> bool
(** Do the SOS1 groups and all constraints hold at a point? *)

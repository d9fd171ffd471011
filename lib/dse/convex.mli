(** The paper's proposed "convex recast" of the nonlinear constraints,
    evaluated end to end.

    The Section 4 BINLP is linearized with McCormick envelopes and
    solved by LP-relaxation branch and bound ({!Optim.Mccormick},
    {!Optim.Milp}); the result is compared against the exact
    combinatorial solution on the same measured model.  Because the
    envelopes relax the cache resource products, the recast model may
    select configurations whose true BRAM use differs from what the
    linear model believed — this study quantifies that. *)

open Leon2.S

type study = {
  exact : Optimizer.outcome;
  recast_selected : Arch.Param.var list;
  recast_config : Arch.Config.t;
  recast_actual : Cost.t;
  agrees : bool;                (** same variable selection? *)
  recast_respects_truth : bool; (** true nonlinear constraints hold? *)
  exact_nodes_hint : string;
  milp_nodes : int;
}

val run : weights:Cost.weights -> Measure.model -> study
val print : Format.formatter -> study -> unit

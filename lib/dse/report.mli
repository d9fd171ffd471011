(** Experiment drivers and table renderers for every figure in the
    paper's evaluation (see DESIGN.md's per-experiment index).

    Each [run_figN] executes our full pipeline (simulator + resource
    model + optimizer) and returns structured results; each
    [print_figN] renders them next to the paper's published values. *)

open Leon2.S

val print_fig1 : Format.formatter -> unit
(** The reconfigurable-parameter table and design-space cardinalities. *)

type fig2 = {
  points : Exhaustive.point list;   (** 28 geometry points, Figure 2 order *)
  optimal : Exhaustive.point;       (** runtime-optimal feasible point *)
}

val run_fig2 : Apps.Registry.t -> fig2
val print_fig2 : Format.formatter -> fig2 -> unit

type fig3 = {
  model : Measure.model;            (** dcache-dims one-at-a-time model *)
  outcome : Optimizer.outcome;      (** w1=100, w2=0 pick *)
}

val run_fig3 : Apps.Registry.t -> fig3
val print_fig3 : Format.formatter -> fig3 -> unit

type fig4_row = {
  app : Apps.Registry.t;
  exhaustive_best : Exhaustive.point option;  (** None: no dcache effect *)
  optimizer_pick : Optimizer.outcome;
}

val run_fig4 : unit -> fig4_row list
(** DRR, FRAG and Arith (BLASTN being Figures 2/3). *)

val print_fig4 : Format.formatter -> fig4_row list -> unit

val run_fig5 : unit -> Optimizer.outcome list
(** Full-space runtime optimization (w1=100, w2=1), all four apps. *)

val print_fig5 : Format.formatter -> Optimizer.outcome list -> unit

val run_fig6 : Measure.model -> (Measure.row * (string * float * int * int)) list
(** BLASTN one-at-a-time costs for the parameters of the paper's
    Figure 6, paired with the paper's row. *)

val print_fig6 : Format.formatter -> Measure.model -> unit

val run_fig7 : unit -> Optimizer.outcome list
(** Chip-resource optimization (w1=1, w2=100), all four apps. *)

val print_fig7 : Format.formatter -> Optimizer.outcome list -> unit

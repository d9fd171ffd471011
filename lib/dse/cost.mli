(** Cost vectors and the paper's normalization conventions.

    Application runtime and chip resources have very different units;
    the paper normalizes both as percentages and combines them with
    weights [w1] (runtime) and [w2] (chip resources):

    - [rho]: runtime delta as a percentage {e of the base runtime};
    - [lambda]: LUT delta in percentage points {e of the device};
    - [beta]: BRAM delta in percentage points {e of the device}.

    The device is the target's: {!Stack.Make} computes [deltas] and the
    headroom from [T.device_luts] and [T.device_brams]. *)

type t = { seconds : float; resources : Synth.Resource.t }

type deltas = { rho : float; lambda : float; beta : float }

type weights = { w1 : float; w2 : float }

val runtime_weights : weights
(** w1 = 100, w2 = 1 — the paper's Section 6.1 runtime optimization. *)

val resource_weights : weights
(** w1 = 1, w2 = 100 — the paper's Section 6.2 chip optimization. *)

val runtime_only : weights
(** w1 = 100, w2 = 0 — the Section 5 dcache study. *)

val objective : weights -> deltas -> float
(** [w1 rho + w2 (lambda + beta)]. *)

val pp : t Fmt.t

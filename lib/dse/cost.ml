type t = { seconds : float; resources : Synth.Resource.t }

type deltas = { rho : float; lambda : float; beta : float }

type weights = { w1 : float; w2 : float }

let runtime_weights = { w1 = 100.0; w2 = 1.0 }
let resource_weights = { w1 = 1.0; w2 = 100.0 }
let runtime_only = { w1 = 100.0; w2 = 0.0 }

let objective w d = (w.w1 *. d.rho) +. (w.w2 *. (d.lambda +. d.beta))

let pp ppf c =
  Fmt.pf ppf "%.3f s, %a" c.seconds Synth.Resource.pp c.resources

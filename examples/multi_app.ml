(* Optimizing one processor for an application mix.

   A network appliance spends 60% of its time scheduling packets (DRR)
   and 40% in control-plane arithmetic (Arith).  The two want opposite
   things: DRR wants 32 KB of dcache and no divider; Arith wants a tiny
   dcache and keeps the radix-2 divider.  Compare three
   recommendations: tuned for each alone and for the weighted mix.

   Run with:  dune exec examples/multi_app.exe                       *)

module Leon2 = Dse.Leon2.S

let () =
  let weights = Dse.Cost.runtime_weights in
  let mix = [ (Apps.Registry.drr, 0.6); (Apps.Registry.arith, 0.4) ] in

  Format.printf "Tuned for the 60/40 DRR/Arith mix:@.";
  let combined = Leon2.Multiapp.optimize ~weights mix in
  Leon2.Multiapp.print Format.std_formatter combined;

  let single app =
    let o = Leon2.Optimizer.run ~weights app in
    o.Leon2.Optimizer.config
  in
  let evaluate name config =
    let change app =
      let base = Apps.Registry.seconds app in
      100.0 *. (Apps.Registry.seconds ~config app -. base) /. base
    in
    let drr = change Apps.Registry.drr and arith = change Apps.Registry.arith in
    Format.printf "%-18s drr %+7.2f%%  arith %+7.2f%%  mix %+7.2f%%@." name drr
      arith ((0.6 *. drr) +. (0.4 *. arith))
  in
  Format.printf "@.Cross-evaluation:@.";
  evaluate "tuned for drr" (single Apps.Registry.drr);
  evaluate "tuned for arith" (single Apps.Registry.arith);
  evaluate "tuned for mix" combined.Leon2.Multiapp.config

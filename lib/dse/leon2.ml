(* The functorized stack instantiated for the paper's own platform.
   Every LEON2-specific client — reports, extensions, examples, bench
   studies, tests — uses this one instance; target-generic code applies
   {!Stack.Make} to the registry's targets instead.

   No interface file on purpose: it would only restate [Stack.Make]'s
   signature. *)

module S = Stack.Make (Target_leon2)

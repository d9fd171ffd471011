(* Golden decision-provenance report: a pinned dcache-subspace run on
   LEON2/arith with the journal enabled must render byte-identical
   JSON and markdown reports.  Timings are omitted ([~timings:false])
   so the capture is wall-clock free; every remaining field — solver
   incumbent timeline, per-candidate accounting, bound tightness — is
   deterministic for this pipeline.  `dune promote` updates the
   .expected files on an intentional change. *)

module S = Dse.Leon2.S

let () =
  Obs.Journal.set_enabled true;
  Obs.Journal.record ~kind:"run.meta"
    [
      ("tool", Obs.Json.String "explain_golden");
      ("target", Obs.Json.String Dse.Target_leon2.name);
      ("app", Obs.Json.String "arith");
      ("dims", Obs.Json.String "dcache");
    ];
  let model =
    S.Measure.build ~dims:Dse.Target_leon2.quick_dims Apps.Registry.arith
  in
  let _outcome =
    S.Optimizer.run_with_model ~weights:Dse.Cost.runtime_weights model
  in
  let report = Dse.Explain.of_journal () in
  print_string (Obs.Json.to_string (Dse.Explain.to_json ~timings:false report));
  print_newline ();
  print_string (Dse.Explain.to_markdown ~timings:false report)

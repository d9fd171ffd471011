(* Differential fuzzing driver.

     fuzz list                        describe the available oracles
     fuzz run --seed 42 --budget 200  run every oracle, 200 trials each
     fuzz run --oracle interp-vs-sim  ... a single oracle
     fuzz run --corpus DIR            write shrunk failures to DIR
     fuzz replay FILE...              re-run corpus entries exactly

   A run is fully determined by the seed: each oracle draws from its
   own stream derived from (seed, oracle name), and every failure is
   written with the seed that reproduces it.  `replay` exits 0 when an
   entry no longer reproduces or is marked known-issue, 1 when an open
   entry still fails. *)

open Cmdliner

let list_cmd =
  let run obs =
    Obs_cli.with_reporting obs "fuzz" @@ fun () ->
    List.iter
      (fun o ->
        Format.printf "%-20s %s@." (Fuzz.Oracle.name o) (Fuzz.Oracle.doc o))
      Fuzz.Oracle.all;
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the available oracles.")
    Term.(const run $ Obs_cli.term)

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Master random seed; each oracle derives its own stream from \
           $(docv) and its name.")

let budget_arg =
  Arg.(
    value & opt int 200
    & info [ "budget" ] ~docv:"K" ~doc:"Trials per oracle.")

let oracle_arg =
  Arg.(
    value & opt_all string []
    & info [ "oracle" ] ~docv:"NAME"
        ~doc:"Run only $(docv) (repeatable; default: all oracles).")

let corpus_arg =
  Arg.(
    value & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:
          "Write shrunk failures to $(docv) as replayable .repro entries \
           (created if missing).")

let run_cmd =
  let run seed budget names corpus_dir obs =
    Obs_cli.with_reporting obs "fuzz" @@ fun () ->
    match
      Fuzz.Runner.run ~names ?corpus_dir ~seed ~budget Format.std_formatter
    with
    | Error msg ->
        Format.eprintf "fuzz: %s@." msg;
        2
    | Ok reports ->
        if List.exists Fuzz.Runner.failed reports then 1 else 0
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the differential oracles and shrink any failure to a minimal \
          counterexample.")
    Term.(
      const run $ seed_arg $ budget_arg $ oracle_arg $ corpus_arg
      $ Obs_cli.term)

let replay_cmd =
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Corpus entries (.repro) to replay.")
  in
  let run files obs =
    Obs_cli.with_reporting obs "fuzz" @@ fun () ->
    let worst =
      List.fold_left
        (fun worst file ->
          match Fuzz.Runner.replay Format.std_formatter file with
          | Error msg ->
              Format.eprintf "fuzz: %s@." msg;
              max worst 2
          | Ok (Fuzz.Runner.Fixed | Fuzz.Runner.Still_failing_known _) -> worst
          | Ok Fuzz.Runner.Still_failing -> max worst 1)
        0 files
    in
    worst
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run corpus entries from their recorded oracle, seed, and trial \
          count.  Exits 0 if every entry is fixed or a known issue, 1 if an \
          open entry still reproduces.")
    Term.(const run $ files_arg $ Obs_cli.term)

let cmd =
  let doc = "differential fuzzer for the minic/sim/arch/optim stack" in
  Cmd.group
    (Cmd.info "fuzz" ~version:"1.0.0" ~doc
       ~exits:
         (Cmd.Exit.info 1 ~doc:"when an oracle or open corpus entry fails."
         :: Cmd.Exit.info 2
              ~doc:
                "on unknown oracles, unreadable or malformed corpus entries, \
                 a corpus directory that cannot be created or written, or \
                 when an output file cannot be opened."
         :: Cmd.Exit.defaults))
    [ list_cmd; run_cmd; replay_cmd ]

let () = exit (Cmd.eval' cmd)

(* Command-line interface for automatic application-specific
   microarchitecture reconfiguration.

     reconfigure --app blastn                 # runtime optimization
     reconfigure --app drr --w1 1 --w2 100    # chip-resource optimization
     reconfigure --app frag --dims dcache     # the paper's Section 5 study
     reconfigure --app arith --exhaustive     # exhaustive dcache baseline *)

open Cmdliner

(* The paper's four benchmarks plus the extra kernels (rtr, dct,
   qsort, phases) — the latter matter for schedule runs, where the
   bi-modal [phases] kernel is the showcase. *)
let known_apps = Apps.Registry.all @ Apps.Extra.all

let app_conv =
  let parse s =
    match
      List.find_opt (fun a -> a.Apps.Registry.name = s) known_apps
    with
    | Some app -> Ok app
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown application %S (known: %s)" s
               (String.concat ", "
                  (List.map (fun a -> a.Apps.Registry.name) known_apps))))
  in
  let print ppf app = Format.fprintf ppf "%s" app.Apps.Registry.name in
  Arg.conv (parse, print)

let app_arg =
  let doc =
    "Application to optimize for (blastn, drr, frag, arith; extras: rtr, \
     dct, qsort, phases)."
  in
  Arg.(required & opt (some app_conv) None & info [ "a"; "app" ] ~doc ~docv:"APP")

(* Weights and the noise amplitude must be finite and non-negative:
   with a NaN weight every objective comparison is false and the solver
   silently keeps the base configuration. *)
let non_negative =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v >= 0.0 -> Ok v
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "invalid value %S, expected a finite number >= 0"
               s))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let w1_arg =
  let doc = "Weight of application runtime in the objective (finite, >= 0)." in
  Arg.(value & opt non_negative 100.0 & info [ "w1" ] ~doc)

let w2_arg =
  let doc =
    "Weight of chip resources (LUT% + BRAM%) in the objective (finite, >= \
     0; not zero together with $(b,--w1))."
  in
  Arg.(value & opt non_negative 1.0 & info [ "w2" ] ~doc)

let weights_term =
  let weights w1 w2 =
    if w1 = 0.0 && w2 = 0.0 then
      Error "--w1 and --w2 are both zero: the objective would be empty"
    else Ok { Dse.Cost.w1; w2 }
  in
  Term.(term_result' ~usage:true (const weights $ w1_arg $ w2_arg))

let dims_arg =
  let doc =
    "Restrict the explored dimensions: 'dcache' for the paper's Section 5 \
     ways x way-size study, 'all' (default) for all 52 variables."
  in
  Arg.(value & opt (enum [ ("all", `All); ("dcache", `Dcache) ]) `All & info [ "dims" ] ~doc)

let exhaustive_arg =
  let doc = "Also run the exhaustive dcache-geometry baseline and compare." in
  Arg.(value & flag & info [ "exhaustive" ] ~doc)

let schedule_arg =
  let doc =
    "Phase-aware reconfiguration: detect the application's program phases, \
     solve for a schedule of configurations (one per phase, switched at \
     runtime at a per-group reconfiguration cost) and compare the verified \
     schedule against the verified static pick."
  in
  Arg.(value & flag & info [ "schedule" ] ~doc)

let noise_arg =
  let doc =
    "Synthesis measurement noise amplitude (fraction of the device, e.g. \
     0.005; finite, >= 0); models place-and-route variance."
  in
  Arg.(value & opt (some non_negative) None & info [ "noise" ] ~doc)

(* [-v]/[-vv] now belong to the shared logging term (Obs_cli); the
   model dump kept its own explicit flag. *)
let print_model_arg =
  let doc = "Print the full one-at-a-time cost model." in
  Arg.(value & flag & info [ "print-model" ] ~doc)

let report_arg =
  let doc = "Print the synthesis utilization report (component tree) of the recommended configuration (leon2 target only)." in
  Arg.(value & flag & info [ "report" ] ~doc)

let target_conv =
  let parse s =
    match Dse.Targets.find (String.lowercase_ascii s) with
    | Some t -> Ok t
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown target %S (known: %s)" s
               (String.concat ", " Dse.Targets.names)))
  in
  let print ppf (module T : Dse.Target.S) = Format.fprintf ppf "%s" T.name in
  Arg.conv (parse, print)

let target_arg =
  let doc = "Soft-core target to reconfigure (leon2, microblaze)." in
  Arg.(
    value
    & opt target_conv (module Dse.Target_leon2 : Dse.Target.S)
    & info [ "target" ] ~doc ~docv:"TARGET")

let explain_arg =
  let doc =
    "Record the run's decision journal (per-candidate engine outcomes, \
     solver incumbent timeline, bound tightness) and write the provenance \
     report as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "explain" ] ~doc ~docv:"FILE")

let explain_md_arg =
  let doc = "Like $(b,--explain) but render the report as markdown." in
  Arg.(value & opt (some string) None & info [ "explain-md" ] ~doc ~docv:"FILE")

let ppf = Format.std_formatter

(* The whole pipeline is generic in the target: instantiating the
   functorized stack on the chosen backend gives the same code path
   (and the same output format) for every soft core.  [explain] and
   [explain_md] are the opened report files. *)
let reconfigure target app weights dims exhaustive schedule noise
    print_model_flag report explain explain_md obs =
  Obs_cli.with_reporting obs "reconfigure" @@ fun () ->
  let (module T : Dse.Target.S) = target in
  let module S = Dse.Stack.Make (T) in
  let { Dse.Cost.w1; w2 } = weights in
  let explaining = explain <> None || explain_md <> None in
  if explaining then begin
    Obs.Journal.set_enabled true;
    Obs.Journal.record ~kind:"run.meta"
      [
        ("tool", Obs.Json.String "reconfigure");
        ("target", Obs.Json.String T.name);
        ("app", Obs.Json.String app.Apps.Registry.name);
        ("w1", Obs.Json.Float w1);
        ("w2", Obs.Json.Float w2);
        ( "dims",
          Obs.Json.String (match dims with `All -> "all" | `Dcache -> "dcache")
        );
        ("mode", Obs.Json.String (if schedule then "schedule" else "static"));
      ]
  end;
  let write_explain () =
    if explaining then begin
      let report = Dse.Explain.of_journal () in
      Option.iter
        (fun (path, oc) ->
          Dse.Explain.write_json oc report;
          close_out oc;
          Logs.info (fun m -> m "wrote explain report to %s" path))
        explain;
      Option.iter
        (fun (path, oc) ->
          Dse.Explain.write_markdown oc report;
          close_out oc;
          Logs.info (fun m -> m "wrote explain report (markdown) to %s" path))
        explain_md
    end
  in
  Fun.protect ~finally:write_explain @@ fun () ->
  let print_model (m : S.Measure.model) =
    Format.fprintf ppf "One-at-a-time cost model (base %a):@." Dse.Cost.pp
      m.S.Measure.base;
    Format.fprintf ppf "  %4s %-20s %9s %8s %8s@." "x_i" "perturbation" "rho%"
      "lambda%" "beta%";
    List.iter
      (fun (r : S.Measure.row) ->
        let d = r.S.Measure.deltas in
        Format.fprintf ppf "  %4d %-20s %+9.3f %+8.3f %+8.3f@."
          r.S.Measure.var.T.index r.S.Measure.var.T.label d.Dse.Cost.rho
          d.Dse.Cost.lambda d.Dse.Cost.beta)
      m.S.Measure.rows
  in
  let dims = match dims with `All -> None | `Dcache -> Some T.quick_dims in
  Format.fprintf ppf "Application: %s — %s@." app.Apps.Registry.name
    app.Apps.Registry.description;
  if schedule then begin
    (* Phase-aware pipeline: detection, per-phase model, schedule
       solve, phased verification — all inside [S.Schedule.run].
       Without an explicit --dims restriction it solves on the
       target's [schedule_dims] subspace. *)
    Logs.info (fun m ->
        m "phase-aware schedule for %s on %s with w1=%g w2=%g"
          app.Apps.Registry.name T.name w1 w2);
    let outcome = S.Schedule.run ?noise ?dims ~weights app in
    Format.fprintf ppf "@.Phase-aware schedule:@.";
    S.Schedule.print ppf outcome;
    Format.pp_print_flush ppf ()
  end
  else begin
  Logs.info (fun m ->
      m "optimizing %s for %s with w1=%g w2=%g (%s dimensions)"
        app.Apps.Registry.name T.name w1 w2
        (match dims with None -> "all" | Some _ -> "dcache"));
  let model = S.Measure.build ?noise ?dims app in
  Logs.info (fun m ->
      m "model built: %d one-at-a-time rows, base %.3fs"
        (List.length model.S.Measure.rows)
        model.S.Measure.base.Dse.Cost.seconds);
  if print_model_flag then print_model model;
  let outcome = S.Optimizer.run_with_model ~weights model in
  Format.fprintf ppf "@.Recommended configuration:@.%a@." T.pp
    outcome.S.Optimizer.config;
  Format.fprintf ppf "(encoded: %s)@." (T.to_string outcome.S.Optimizer.config);
  S.Optimizer.print_outcome_summary ppf outcome;
  if report then begin
    (* The utilization report elaborates a LEON2 netlist; recover the
       LEON2-typed configuration through the canonical codec. *)
    match Arch.Codec.of_string (T.to_string outcome.S.Optimizer.config) with
    | Ok c when T.name = "leon2" ->
        Format.fprintf ppf "@.Utilization report:@.";
        Synth.Netlist.pp ppf (Synth.Netlist.elaborate c)
    | _ ->
        Format.fprintf ppf
          "@.(--report is only available for the leon2 target)@."
  end;
  if exhaustive then begin
    Format.fprintf ppf "@.Exhaustive dcache baseline:@.";
    let points = S.Exhaustive.geometry_sweep app in
    match S.Exhaustive.best_runtime points with
    | best -> (
        match best.S.Exhaustive.cost with
        | Some c ->
            Format.fprintf ppf
              "  best runtime: %s at %.3fs (optimizer: %.3fs)@."
              (T.describe_sweep_point best.S.Exhaustive.config)
              c.Dse.Cost.seconds
              outcome.S.Optimizer.actual.Dse.Cost.seconds
        | None -> ())
    | exception Not_found ->
        Format.fprintf ppf "  no feasible dcache point@."
  end;
  Format.pp_print_flush ppf ()
  end

let exit_report = 2

(* A report file is opened before the run, so a bad path fails at once
   instead of after the whole pipeline. *)
let open_report = function
  | None -> Ok None
  | Some path -> (
      try Ok (Some (path, open_out_bin path)) with Sys_error m -> Error m)

let run target app weights dims exhaustive schedule noise print_model_flag
    report explain explain_md obs =
  match (open_report explain, open_report explain_md) with
  | Error m, _ | _, Error m ->
      Printf.eprintf "reconfigure: cannot open report file: %s\n" m;
      exit_report
  | Ok explain, Ok explain_md ->
      reconfigure target app weights dims exhaustive schedule noise
        print_model_flag report explain explain_md obs;
      0

let cmd =
  let doc = "automatic application-specific microarchitecture reconfiguration" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Builds a one-at-a-time cost model of the chosen soft-core target \
         (LEON2 by default, see --target) for the chosen application \
         (simulated execution + analytic FPGA synthesis), formulates the \
         paper's constrained binary integer nonlinear program, solves it \
         exactly, and reports the recommended configuration together with \
         its actually-measured cost.";
    ]
  in
  let exits =
    Cmd.Exit.info exit_report
      ~doc:
        "when an $(b,--explain), $(b,--explain-md), $(b,--trace-out), \
         $(b,--metrics-out) or $(b,--profile-out) file cannot be opened."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "reconfigure" ~version:"1.0.0" ~doc ~man ~exits)
    Term.(
      const run $ target_arg $ app_arg $ weights_term $ dims_arg
      $ exhaustive_arg $ schedule_arg $ noise_arg $ print_model_arg
      $ report_arg $ explain_arg $ explain_md_arg $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)

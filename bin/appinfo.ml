(* Diagnostic tool: per-application static features plus execution
   statistics on the base configuration and a few interesting
   perturbations.  Used to calibrate workload sizes against the
   paper's runtime signatures.

     appinfo                      dynamic + static report, paper apps
     appinfo blastn drr           ... a subset (extra apps allowed)
     appinfo --static             static features only (no simulation)
     appinfo --lint [--Werror]    lint every selected app's source     *)

open Cmdliner

let pr fmt = Format.printf fmt

let dcache_kb kb =
  { Arch.Config.base with
    dcache = { Arch.Config.base.Arch.Config.dcache with way_kb = kb } }

let with_iu f =
  { Arch.Config.base with Arch.Config.iu = f Arch.Config.base.Arch.Config.iu }

let selected_apps names =
  let known = Apps.Registry.all @ Apps.Extra.all in
  match names with
  | [] -> Apps.Registry.all
  | names ->
      List.map
        (fun name ->
          match
            List.find_opt (fun a -> a.Apps.Registry.name = String.lowercase_ascii name) known
          with
          | Some a -> a
          | None ->
              Logs.err (fun m ->
                  m "unknown app %S (known: %s)" name
                    (String.concat ", "
                       (List.map (fun a -> a.Apps.Registry.name) known)));
              exit 2)
        names

(* Lint every selected app's source; exit 4 on failures, like
   [mcc --lint].  Backs the @lint alias for the registry. *)
let lint_apps ~werror apps =
  let failed = ref false in
  List.iter
    (fun app ->
      let findings = Minic.Lint.program app.Apps.Registry.source in
      List.iter
        (fun f ->
          pr "%s: %a@." app.Apps.Registry.name Minic.Lint.pp_finding f)
        findings;
      pr "%s: %d finding%s@." app.Apps.Registry.name (List.length findings)
        (if List.length findings = 1 then "" else "s");
      if Minic.Lint.fails ~werror findings then failed := true)
    apps;
  if !failed then exit 4

let static_report app =
  let ft = Apps.Features.of_app app in
  pr "  static: @[<v>%a@]@." Apps.Features.pp ft

(* Static [best, worst] runtime bounds on the selected target's base
   configuration, with the worst/best tightness ratio. *)
let bounds_report (module T : Dse.Target.S) app =
  let lo, hi = Dse.Bounds.app_bounds (T.cycle_model T.base) app in
  let tight =
    match Dse.Bounds.tightness ~lo ~hi with
    | Some r -> Printf.sprintf "x%.2f" r
    | None -> "unbounded"
  in
  pr "  bounds (%s base): [%.3f s, %.3f s]  tightness %s@." T.name lo hi tight

(* Program-phase summary on the selected target's base configuration:
   one cold detection run, reported as count, boundaries, dominant
   class and per-phase CPI (see Sim.Phase). *)
let phase_report (module T : Dse.Target.S) app =
  let ph = T.detect_phases app in
  pr "  phases (%s base): %a@." T.name Sim.Phase.pp ph

let dynamic_report app =
  let base_r = Apps.Registry.run app in
  let p = base_r.Sim.Machine.profile in
  pr "  base: cold=%d warm=%d checksum=%#x seconds=%.2f (paper %.2f)@."
    base_r.Sim.Machine.cold_cycles base_r.Sim.Machine.warm_cycles
    base_r.Sim.Machine.checksum
    (Sim.Machine.seconds base_r)
    app.Apps.Registry.paper_base_seconds;
  pr "  warm profile: %a@." Sim.Profiler.pp p;
  let show name config =
    let r = Apps.Registry.run ~config app in
    let d =
      100.0
      *. (Sim.Machine.seconds r -. Sim.Machine.seconds base_r)
      /. Sim.Machine.seconds base_r
    in
    pr "  %-18s %10.3f s  (%+.2f%%)@." name (Sim.Machine.seconds r) d
  in
  show "dcache 1KB" (dcache_kb 1);
  show "dcache 8KB" (dcache_kb 8);
  show "dcache 16KB" (dcache_kb 16);
  show "dcache 32KB" (dcache_kb 32);
  show "dcache 2x16KB"
    { Arch.Config.base with
      dcache = { Arch.Config.base.Arch.Config.dcache with ways = 2; way_kb = 16 } };
  show "icache 1KB"
    { Arch.Config.base with
      icache = { Arch.Config.base.Arch.Config.icache with way_kb = 1 } };
  show "icache 2KB"
    { Arch.Config.base with
      icache = { Arch.Config.base.Arch.Config.icache with way_kb = 2 } };
  show "line 4 (dcache)"
    { Arch.Config.base with
      dcache = { Arch.Config.base.Arch.Config.dcache with line_words = 4 } };
  show "mul 32x32" (with_iu (fun u -> { u with Arch.Config.multiplier = Arch.Config.Mul_32x32 }));
  show "mul iterative" (with_iu (fun u -> { u with Arch.Config.multiplier = Arch.Config.Mul_iterative }));
  show "no icc hold" (with_iu (fun u -> { u with Arch.Config.icc_hold = false }));
  show "no fast jump" (with_iu (fun u -> { u with Arch.Config.fast_jump = false }));
  show "no divider" (with_iu (fun u -> { u with Arch.Config.divider = Arch.Config.Div_none }))

(* One-at-a-time report for a non-LEON2 target: the same base line, then
   every parameter-space variable applied to the target's base config.
   (The LEON2 report above keeps its historical hand-picked sweep.) *)
let target_dynamic_report (module T : Dse.Target.S) app =
  let base_r = T.run_app app in
  let p = base_r.Sim.Machine.profile in
  pr "  base: cold=%d warm=%d checksum=%#x seconds=%.2f (paper %.2f)@."
    base_r.Sim.Machine.cold_cycles base_r.Sim.Machine.warm_cycles
    base_r.Sim.Machine.checksum
    (Sim.Machine.seconds base_r)
    app.Apps.Registry.paper_base_seconds;
  pr "  warm profile: %a@." Sim.Profiler.pp p;
  List.iter
    (fun (v : T.var) ->
      let config = v.T.apply T.base in
      if T.is_valid config && not (T.equal config T.base) then begin
        let r = T.run_app ~config app in
        let d =
          100.0
          *. (Sim.Machine.seconds r -. Sim.Machine.seconds base_r)
          /. Sim.Machine.seconds base_r
        in
        pr "  %-18s %10.3f s  (%+.2f%%)@." v.T.label (Sim.Machine.seconds r) d
      end)
    T.vars

let list_targets () =
  List.iter
    (fun (module T : Dse.Target.S) ->
      pr "%-12s %s@." T.name T.description)
    Dse.Targets.all

let run list_targets_flag target lint werror static names obs =
  Obs_cli.with_reporting obs "appinfo" @@ fun () ->
  if list_targets_flag then list_targets ()
  else begin
    let (module T : Dse.Target.S) = target in
    let apps = selected_apps names in
    if lint then lint_apps ~werror apps
    else
      List.iter
        (fun app ->
          let prog = Lazy.force app.Apps.Registry.program in
          pr "=== %s (%d insns, %d B data, reps %d) ===@."
            app.Apps.Registry.name
            (Array.length prog.Isa.Program.code)
            (Bytes.length prog.Isa.Program.data)
            app.Apps.Registry.reps;
          static_report app;
          bounds_report (module T) app;
          if not static then begin
            phase_report (module T) app;
            if T.name = "leon2" then dynamic_report app
            else target_dynamic_report (module T) app
          end;
          pr "@.")
        apps
  end

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
  let doc = "Soft-core target for the dynamic report (see --list-targets)." in
  Arg.(
    value
    & opt target_conv (module Dse.Target_leon2 : Dse.Target.S)
    & info [ "target" ] ~doc ~docv:"TARGET")

let list_targets_arg =
  Arg.(
    value & flag
    & info [ "list-targets" ]
        ~doc:"List the registered soft-core targets and exit.")

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Lint every selected application's source and exit 4 on \
           error-level findings, like $(b,mcc --lint).")

let werror_arg =
  Arg.(
    value & flag
    & info [ "Werror" ] ~doc:"With $(b,--lint): treat warnings as errors.")

let static_arg =
  Arg.(
    value & flag
    & info [ "static" ] ~doc:"Static features only (skip the simulations).")

let names_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"APP" ~doc:"Applications to report on (default: the paper's four).")

let exits =
  Cmd.Exit.info 2
    ~doc:
      "on an unknown application, or when a $(b,--trace-out), \
       $(b,--metrics-out) or $(b,--profile-out) file cannot be opened."
  :: Cmd.Exit.info 4
       ~doc:
         "with $(b,--lint): on error-level findings, or any warning under \
          $(b,--Werror)."
  :: Cmd.Exit.defaults

let cmd =
  let doc = "per-application static features and execution statistics" in
  Cmd.v
    (Cmd.info "appinfo" ~version:"1.0.0" ~doc ~exits)
    Term.(
      const run $ list_targets_arg $ target_arg $ lint_arg $ werror_arg
      $ static_arg $ names_arg $ Obs_cli.term)

let () = exit (Cmd.eval cmd)

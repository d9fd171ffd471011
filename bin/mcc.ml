(* minic compiler driver.

     mcc prog.mc                 parse + check + compile, report sizes
     mcc prog.mc --disasm        print the generated assembly
     mcc prog.mc -o prog.img     write the binary program image
     mcc prog.img --run          load an image and simulate it
     mcc prog.mc --run           compile and simulate (base config)
     mcc prog.mc --run --stats   ... with the full cycle profile
     mcc prog.mc -O --run        compile with optimizations (level 1)
     mcc prog.mc --O2 --run      ... plus dataflow CCP and DCE
     mcc prog.mc --lint          static diagnostics only
     mcc prog.mc --lint --Werror ... failing on warnings too
     mcc prog.mc --bounds        static [best, worst] cycle bounds
     mcc prog.mc --run -c dc=1x32x4xrnd,mul=m32x32
                                 simulate on a tuned configuration     *)

open Cmdliner

(* Distinct exit codes so scripts and the @lint alias can tell failure
   stages apart (1 is kept for runtime/simulation errors). *)
let exit_parse = 2
let exit_check = 3
let exit_lint = 4
let exit_trace = 5

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_and_check path =
  let src = read_file path in
  match Minic.Parser.parse src with
  | Error msg ->
      Logs.err (fun m -> m "%s: %s" path msg);
      exit exit_parse
  | Ok ast -> (
      match Minic.Check.check ast with
      | Error es ->
          List.iter (fun e -> Logs.err (fun m -> m "%s: %s" path e)) es;
          exit exit_check
      | Ok () -> ast)

let load ~level path =
  if Filename.check_suffix path ".img" then
    match Isa.Encode.decode_program (Bytes.of_string (read_file path)) with
    | prog -> (prog, None)
    | exception Isa.Encode.Error msg ->
        Logs.err (fun m -> m "%s: malformed program image: %s" path msg);
        exit exit_parse
  else
    let ast = parse_and_check path in
    (Minic.Codegen.compile ~level ast, Some ast)

let lint ~werror path =
  if Filename.check_suffix path ".img" then begin
    Logs.err (fun m ->
        m "%s: --lint needs minic source, not a binary image" path);
    exit exit_parse
  end;
  let ast = parse_and_check path in
  let findings = Minic.Lint.program ast in
  List.iter
    (fun f -> Format.printf "%s: %a@." path Minic.Lint.pp_finding f)
    findings;
  let errors =
    List.length
      (List.filter (fun f -> f.Minic.Lint.severity = Minic.Lint.Error) findings)
  in
  Format.printf "%s: %d finding%s (%d error%s)@." path (List.length findings)
    (if List.length findings = 1 then "" else "s")
    errors
    (if errors = 1 then "" else "s");
  if Minic.Lint.fails ~werror findings then exit exit_lint

let run target source output disasm run stats optimize level do_lint werror
    bounds trace config obs =
  Obs_cli.with_reporting obs "mcc" @@ fun () ->
  let (module T : Dse.Target.S) = target in
  let config =
    match config with
    | None -> T.base
    | Some s -> (
        match T.of_string s with
        | Ok c -> c
        | Error m ->
            Logs.err (fun m' -> m' "--config: %s" m);
            exit 1)
  in
  if do_lint then lint ~werror source
  else begin
    let level =
      match level with Some l -> l | None -> if optimize then 1 else 0
    in
    let prog, ast = load ~level source in
    Format.printf "%s: %d instructions, %d bytes of data, %d symbols@." source
      (Array.length prog.Isa.Program.code)
      (Bytes.length prog.Isa.Program.data)
      (List.length prog.Isa.Program.symbols);
    (match output with
    | None -> ()
    | Some path ->
        let image = Isa.Encode.encode_program prog in
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_bytes oc image);
        Format.printf "wrote %s (%d bytes)@." path (Bytes.length image));
    if disasm then Format.printf "%a@." Isa.Program.pp prog;
    if bounds then begin
      match ast with
      | None ->
          Logs.err (fun m ->
              m "%s: --bounds needs minic source, not a binary image" source);
          exit exit_parse
      | Some ast ->
          let s = Minic.Bounds.summary ~level ast in
          let cm = T.cycle_model config in
          let clo, chi = Dse.Bounds.cycles cm s in
          let slo, shi = Dse.Bounds.seconds cm ~reps:1 s in
          Format.printf "static bounds (%s, %s):@." T.name
            (T.to_string config);
          Format.printf "  cycles   [%.0f, %.0f]" clo chi;
          (match Dse.Bounds.tightness ~lo:clo ~hi:chi with
          | Some r -> Format.printf "  (x%.2f)@." r
          | None -> Format.printf "  (unbounded)@.");
          Format.printf "  runtime  [%.9fs, %.9fs]@." slo shi;
          Format.printf "  loops    %d (%d bounded), call depth %s@."
            s.Minic.Bounds.loops s.Minic.Bounds.bounded_loops
            (match s.Minic.Bounds.call_depth with
            | Some d -> string_of_int d
            | None -> "recursive")
    end;
    (match trace with
    | None -> ()
    | Some n ->
        if T.name <> "leon2" then begin
          Logs.err (fun m ->
              m
                "--trace drives the LEON2 cycle model directly and is not \
                 available for target %s"
                T.name);
          exit exit_trace
        end;
        (* The instruction tracer drives the LEON2 Cpu model directly;
           recover the LEON2-typed configuration through the codec. *)
        (match Arch.Codec.of_string (T.to_string config) with
        | Ok c -> (
            match
              Sim.Trace.run ~limit:n
                (Sim.Cpu.create c prog ~mem_size:(1 lsl 20))
            with
            | exception Sim.Cpu.Error msg ->
                Logs.err (fun m -> m "simulation error: %s" msg);
                exit 1
            | trace -> Sim.Trace.pp Format.std_formatter trace)
        | Error msg ->
            Logs.err (fun m -> m "--trace: %s" msg);
            exit 1));
    if run then begin
      (* run_program (backed by Machine.run rather than driving Cpu
         directly) so the execution shows up as a sim span and flushes
         its profile into the metrics registry for --metrics-out. *)
      match T.run_program ~mem_size:(1 lsl 20) config prog with
      | exception Sim.Cpu.Error msg ->
          Logs.err (fun m -> m "simulation error: %s" msg);
          exit 1
      | r ->
          let p = r.Sim.Machine.profile in
          Format.printf "result: %#x (%d cycles, %d instructions)@."
            r.Sim.Machine.checksum p.Sim.Profiler.cycles
            p.Sim.Profiler.instructions;
          if stats then Format.printf "%a@." Sim.Profiler.pp p
    end
  end

let source_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE" ~doc:"minic source (.mc) or program image (.img)")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the binary program image to $(docv).")

let disasm_arg = Arg.(value & flag & info [ "d"; "disasm" ] ~doc:"Print the generated assembly.")
let run_arg = Arg.(value & flag & info [ "r"; "run" ] ~doc:"Simulate on the base configuration.")
let stats_arg = Arg.(value & flag & info [ "stats" ] ~doc:"With --run: print the full cycle profile.")
let optimize_arg = Arg.(value & flag & info [ "O"; "optimize" ] ~doc:"Run the source-level optimizer before code generation (same as $(b,--O1)).")

let level_arg =
  Arg.(
    value
    & vflag None
        [
          (Some 1, info [ "O1" ] ~doc:"Optimize with local rewrites only.");
          ( Some 2,
            info [ "O2" ]
              ~doc:
                "Optimize with local rewrites plus dataflow-driven constant \
                 propagation and dead-store elimination." );
        ])

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run the static analyses and print diagnostics instead of \
           compiling.  Exits 4 if any error-level finding is reported.")

let werror_arg =
  Arg.(
    value & flag
    & info [ "Werror" ]
        ~doc:"With $(b,--lint): treat warnings as errors (notes stay notes).")

let bounds_arg =
  Arg.(
    value & flag
    & info [ "bounds" ]
        ~doc:
          "Print sound static [best-case, worst-case] cycle and runtime \
           bounds for the selected target and configuration, with the \
           tightness ratio worst/best.  Needs minic source.")

let trace_arg = Arg.(value & opt (some int) None & info [ "trace" ] ~docv:"N" ~doc:"Trace the first $(docv) executed instructions with cycle deltas (leon2 target only; exits 5 elsewhere).")
let config_arg = Arg.(value & opt (some string) None & info [ "c"; "config" ] ~docv:"CFG" ~doc:"Microarchitecture configuration string (see reconfigure's output), e.g. dc=1x32x4xrnd,mul=m32x32.")

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
  let doc = "Soft-core target for $(b,--run)/$(b,--config) (leon2, microblaze)." in
  Arg.(
    value
    & opt target_conv (module Dse.Target_leon2 : Dse.Target.S)
    & info [ "target" ] ~doc ~docv:"TARGET")

let exits =
  Cmd.Exit.info 1 ~doc:"on configuration or simulation errors."
  :: Cmd.Exit.info exit_parse
       ~doc:
         "on parse errors and malformed program images, or when a \
          $(b,--trace-out), $(b,--metrics-out) or $(b,--profile-out) file \
          cannot be opened."
  :: Cmd.Exit.info exit_check ~doc:"on static-check errors (unknown names, limit overflows)."
  :: Cmd.Exit.info exit_lint
       ~doc:
         "on lint findings: any error, or any warning under $(b,--Werror)."
  :: Cmd.Exit.info exit_trace
       ~doc:"when $(b,--trace) is requested on a target other than leon2."
  :: Cmd.Exit.defaults

let cmd =
  let doc = "minic compiler and simulator driver" in
  Cmd.v
    (Cmd.info "mcc" ~version:"1.0.0" ~doc ~exits)
    Term.(
      const run $ target_arg $ source_arg $ output_arg $ disasm_arg $ run_arg
      $ stats_arg $ optimize_arg $ level_arg $ lint_arg $ werror_arg
      $ bounds_arg $ trace_arg $ config_arg $ Obs_cli.term)

let () = exit (Cmd.eval cmd)

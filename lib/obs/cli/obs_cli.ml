open Cmdliner

type t = {
  verbosity : int;
  trace_out : string option;
  metrics_out : string option;
  profile_out : string option;
}

let verbosity_arg =
  let doc =
    "Increase log verbosity: $(b,-v) for informational messages, $(b,-vv) \
     for debug."
  in
  Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc)

let trace_out_arg =
  let doc =
    "Record spans of the pipeline's phases and write a Chrome trace-event \
     JSON file to $(docv) (open in Perfetto or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"FILE")

let metrics_out_arg =
  let doc =
    "Write a JSON snapshot of the metrics registry (simulator event \
     counters, solver node counts, build counts) to $(docv) on exit."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~doc ~docv:"FILE")

let profile_out_arg =
  let doc =
    "Enable the sampling profiler and write a folded-stacks table (for \
     flamegraph.pl or speedscope) to $(docv) on exit."
  in
  Arg.(value & opt (some string) None & info [ "profile-out" ] ~doc ~docv:"FILE")

let term =
  let make v trace_out metrics_out profile_out =
    { verbosity = List.length v; trace_out; metrics_out; profile_out }
  in
  Term.(
    const make $ verbosity_arg $ trace_out_arg $ metrics_out_arg
    $ profile_out_arg)

let exit_output = 2

let install t =
  Obs.Log.setup ~verbosity:t.verbosity ();
  if t.trace_out <> None then Obs.Trace.set_enabled true;
  if t.profile_out <> None then Obs.Profile.start ()

(* Every requested output file is opened before the run, so a bad path
   fails at once instead of after the whole run. *)
type outputs = {
  trace : (string * out_channel) option;
  profile : (string * out_channel) option;
  metrics : (string * out_channel) option;
}

let open_outputs t =
  let opened = ref [] in
  let open_one = function
    | None -> None
    | Some path ->
        let oc = open_out_bin path in
        opened := oc :: !opened;
        Some (path, oc)
  in
  match
    let trace = open_one t.trace_out in
    let profile = open_one t.profile_out in
    let metrics = open_one t.metrics_out in
    { trace; profile; metrics }
  with
  | outputs -> Ok outputs
  | exception Sys_error m ->
      List.iter close_out_noerr !opened;
      Error m

let write file f what =
  Option.iter
    (fun (path, oc) ->
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc);
      Logs.info (fun m -> m "wrote %s to %s" what path))
    file

let finish o =
  write o.trace Obs.Export.write_trace "Chrome trace";
  if o.profile <> None then Obs.Profile.stop ();
  write o.profile Obs.Export.write_profile
    (Printf.sprintf "folded-stacks profile (%d samples)"
       (Obs.Profile.total_samples ()));
  write o.metrics Obs.Export.write_metrics "metrics snapshot"

let with_reporting t root f =
  match open_outputs t with
  | Error m ->
      Printf.eprintf "%s: cannot open output file: %s\n%!" root m;
      exit exit_output
  | Ok outputs ->
      install t;
      Fun.protect
        ~finally:(fun () -> finish outputs)
        (fun () -> Obs.Span.with_ ~cat:"cli" root f)

(* Miss-rate curves from one recorded execution: the "smart sampling"
   direction of the paper's future work.

   One simulation records the execution's reference stream
   (Sim.Recording); each dcache size is then answered by replaying that
   stream through a cache of its geometry alone, with exactly the
   simulator's probe rules, so the curve is exact rather than
   estimated.  We check every replayed point against actually
   simulating that dcache size (4-way LRU for capacities >= 4 KB,
   direct-mapped below).

   Run with:  dune exec examples/miss_curve.exe [app]               *)

let capacities_kb = [ 1; 2; 4; 8; 16; 32; 64 ]

(* The realizable geometry of a capacity: 4 ways of kb/4 each (LRU) for
   capacities >= 4 KB; smaller ones use 1 way. *)
let dcache_of kb =
  let ways, way_kb, replacement =
    if kb >= 4 then (4, kb / 4, Arch.Config.Lru) else (1, kb, Arch.Config.Random)
  in
  { Arch.Config.ways; way_kb; line_words = 8; replacement }

let () =
  let app =
    match Sys.argv with
    | [| _; name |] -> Apps.Registry.find name
    | _ -> Apps.Registry.blastn
  in
  let prog = Lazy.force app.Apps.Registry.program in
  Format.printf "Data-read miss-rate curve for %s@.@." app.Apps.Registry.name;

  let base = Arch.Config.base in
  let run, recording =
    Sim.Recording.capture (fun () -> Sim.Machine.run base prog)
  in
  let recorded = run.Sim.Machine.profile in
  Format.printf "recording: %d instructions, %d data reads@.@."
    recorded.Sim.Profiler.instructions recorded.Sim.Profiler.dcache_reads;

  let icache, _ = Sim.Recording.own recording in
  let replayed_misses dcache =
    let dcache = Sim.Recording.replay recording Sim.Cache.Data dcache in
    match
      Sim.Recording.segments recording ~icache ~dcache ~epoch:0 ~boundaries:[]
    with
    | [ p ] -> p.Sim.Profiler.dcache_read_misses
    | _ -> assert false
  in
  Format.printf "%8s %12s %16s %16s@." "KB" "geometry" "replayed misses"
    "simulated misses";
  let curve =
    List.map
      (fun kb ->
        let dcache = dcache_of kb in
        let replayed = replayed_misses dcache in
        let cpu = Sim.Machine.run_once { base with Arch.Config.dcache } prog in
        let simulated = (Sim.Cpu.profile cpu).Sim.Profiler.dcache_read_misses in
        Format.printf "%8d %12s %16d %16d@." kb
          (Printf.sprintf "%dx%dKB %s" dcache.Arch.Config.ways
             dcache.Arch.Config.way_kb
             (if kb >= 4 then "lru" else "dm"))
          replayed simulated;
        if replayed <> simulated then begin
          Format.eprintf "miss_curve: the replay of %d KB disagrees with its simulation@." kb;
          exit 1
        end;
        (kb, replayed))
      capacities_kb
  in
  Format.printf "@.";
  Dse.Plot.xy ~x_label:"dcache KB" ~y_label:"replayed read misses"
    Format.std_formatter
    (Dse.Plot.series_to_floats curve);
  Format.printf
    "@.One recorded run answers the whole sweep exactly; each simulated row \
     would cost the paper a full build + execution.@."

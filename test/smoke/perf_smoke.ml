(* Perf smoke (@perf-smoke): run the dcache-subspace pipeline twice in
   one process and assert the second pass is served almost entirely
   (>= 90 %) from the evaluation engine's memo cache, judged from the
   exported metrics JSON — the same artifact users get from
   --metrics-out.  A regression that silently stops memoizing (a key
   scheme change, a cache bypass) fails this without waiting for the
   full benchmarks. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let counter json path name =
  match Option.bind (Obs.Json.member name json) (Obs.Json.member "value") with
  | Some v -> (
      match Obs.Json.to_int v with
      | Some n -> n
      | None -> fail "%s: %s.value is not an integer" path name)
  | None -> fail "%s: no %s counter in metrics dump" path name

let pipeline () =
  ignore
    (Dse.Leon2.S.Optimizer.run ~dims:Arch.Param.dcache_size_dims
       ~weights:Dse.Cost.runtime_only Apps.Registry.arith)

let () =
  match Array.to_list Sys.argv with
  | [ _; pass1_path; pass2_path ] ->
      pipeline ();
      Out_channel.with_open_bin pass1_path Obs.Export.write_metrics;
      pipeline ();
      Out_channel.with_open_bin pass2_path Obs.Export.write_metrics;
      let parse path =
        match Obs.Json.parse (read_file path) with
        | Ok json -> json
        | Error m -> fail "%s: invalid JSON: %s" path m
      in
      let m1 = parse pass1_path and m2 = parse pass2_path in
      let hits = counter m2 pass2_path "dse.engine.hits" - counter m1 pass1_path "dse.engine.hits" in
      let misses =
        counter m2 pass2_path "dse.engine.misses"
        - counter m1 pass1_path "dse.engine.misses"
      in
      let total = hits + misses in
      if total = 0 then fail "second pass performed no evaluations";
      let ratio = float_of_int hits /. float_of_int total in
      Printf.printf "second pass: %d hits / %d evaluations (%.0f%% cached)\n"
        hits total (100.0 *. ratio);
      if ratio < 0.9 then
        fail "second pass only %.0f%% cache hits (want >= 90%%)"
          (100.0 *. ratio)
  | _ -> fail "usage: perf_smoke PASS1.json PASS2.json"

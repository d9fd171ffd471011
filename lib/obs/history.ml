(* Bench history: an append-only JSONL log of benchmark runs, keyed by
   git revision + target (experiment name), and a relative-threshold
   regression check against the recent history.

   Thresholds are per metric family: wall-clock is noisy (machine
   load, turbo), so it gets a generous ratio; node/build/hit counts
   are deterministic for a fixed seed, so they get tight ones.  The
   baseline is the median of the last [window] entries for the same
   target, which tolerates one bad historical sample. *)

type entry = {
  rev : string;
  target : string;
  time : float; (* unix epoch seconds; informational only *)
  metrics : (string * float) list;
}

let entry_to_json e =
  Json.Obj
    [
      ("rev", Json.String e.rev);
      ("target", Json.String e.target);
      ("time", Json.Float e.time);
      ( "metrics",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) e.metrics) );
    ]

let entry_of_json j =
  let str k =
    match Json.member k j with Some (Json.String s) -> Some s | _ -> None
  in
  match (str "rev", str "target", Json.member "metrics" j) with
  | Some rev, Some target, Some (Json.Obj fields) ->
      let time =
        Option.value ~default:0.0
          (Option.bind (Json.member "time" j) Json.to_float)
      in
      let metrics =
        List.filter_map
          (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v))
          fields
      in
      Ok { rev; target; time; metrics }
  | _ -> Error "history entry: rev, target and metrics object required"

let write oc e =
  output_string oc (Json.to_string (entry_to_json e) ^ "\n");
  flush oc

let append path e =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> write oc e)

let load path =
  if not (Sys.file_exists path) then Ok []
  else
    match open_in_bin path with
    | exception Sys_error m -> Error m
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let entries = ref [] in
            let lineno = ref 0 in
            let error = ref None in
            (try
               while !error = None do
                 let line = input_line ic in
                 incr lineno;
                 if String.trim line <> "" then
                   match Json.parse line with
                   | Error m ->
                       error := Some (Printf.sprintf "%s:%d: %s" path !lineno m)
                   | Ok j -> (
                       match entry_of_json j with
                       | Ok e -> entries := e :: !entries
                       | Error m ->
                           error :=
                             Some (Printf.sprintf "%s:%d: %s" path !lineno m))
               done
             with
             | End_of_file -> ()
             | Sys_error m -> error := Some (path ^ ": " ^ m));
            match !error with
            | Some m -> Error m
            | None -> Ok (List.rev !entries))

(* --- regression check --- *)

type rule = {
  metric : string;
  max_ratio : float option; (* regression when current/baseline exceeds *)
  min_ratio : float option; (* regression when current/baseline falls below *)
}

let default_rules =
  [
    { metric = "wall_clock_s"; max_ratio = Some 1.50; min_ratio = None };
    { metric = "solver_nodes"; max_ratio = Some 1.05; min_ratio = None };
    { metric = "sim_cycles"; max_ratio = Some 1.05; min_ratio = None };
    { metric = "builds"; max_ratio = Some 1.05; min_ratio = None };
    { metric = "bounds_pruned"; max_ratio = None; min_ratio = Some 0.95 };
    { metric = "engine_hits"; max_ratio = None; min_ratio = Some 0.95 };
    (* simulator throughput: identical work (sim_cycles is pinned
       above) must not get much slower to execute *)
    { metric = "sim_cycles_per_second"; max_ratio = None; min_ratio = Some 0.67 };
    (* solver throughput: same floor as the simulator — solver_nodes
       is pinned above, so nodes/s drift means the B&B loop slowed *)
    { metric = "binlp_nodes_per_second"; max_ratio = None; min_ratio = Some 0.67 };
    (* phase-schedule pipeline: detection and the schedule solve are
       deterministic for a fixed seed, so drift in either direction is
       a behavior change; the verified gain must not erode *)
    { metric = "phases_detected"; max_ratio = Some 1.05; min_ratio = Some 0.95 };
    { metric = "schedule_solver_nodes"; max_ratio = Some 1.05; min_ratio = None };
    { metric = "schedule_gain_pct"; max_ratio = None; min_ratio = Some 0.90 };
  ]

type regression = {
  metric : string;
  baseline : float;
  current : float;
  ratio : float;
  limit : float;
  above : bool; (* true: exceeded max_ratio; false: fell below min_ratio *)
}

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "History.median: empty"
  | sorted ->
      let n = List.length sorted in
      let nth k = List.nth sorted k in
      if n mod 2 = 1 then nth (n / 2)
      else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.0

let last_n n xs =
  let len = List.length xs in
  if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs

let baseline_for ?(window = 5) history target metric =
  let values =
    List.filter_map
      (fun e ->
        if e.target = target then List.assoc_opt metric e.metrics else None)
      history
  in
  match last_n window values with [] -> None | vs -> Some (median vs)

let check ?(window = 5) ?(rules = default_rules) ~history entry =
  List.filter_map
    (fun (r : rule) ->
      match
        ( baseline_for ~window history entry.target r.metric,
          List.assoc_opt r.metric entry.metrics )
      with
      | Some baseline, Some current when baseline > 0.0 ->
          let ratio = current /. baseline in
          let above_max =
            match r.max_ratio with
            | Some m when ratio > m -> Some (m, true)
            | _ -> None
          in
          let below_min =
            match r.min_ratio with
            | Some m when ratio < m -> Some (m, false)
            | _ -> None
          in
          Option.map
            (fun (limit, above) ->
              { metric = r.metric; baseline; current; ratio; limit; above })
            (match above_max with Some _ -> above_max | None -> below_min)
      | _ -> None)
    rules

let pp_regression ppf r =
  Format.fprintf ppf "%s: %g -> %g (%.2fx, %s %.2fx)" r.metric r.baseline
    r.current r.ratio
    (if r.above then "limit" else "floor")
    r.limit

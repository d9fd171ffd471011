type report = {
  oracle : string;
  seed : int;  (** the derived per-oracle seed actually used *)
  count : int;
  outcome : Oracle.outcome;
  corpus_file : string option;
}

(* Independent per-oracle streams from one master seed, so `run --seed
   N` exercises different randomness per oracle while staying fully
   reproducible.  The derived seed is recorded in reports and corpus
   entries; replay uses the recorded value, never this function. *)
let derive_seed master name = Hashtbl.hash (master, name) land 0x3FFFFFFF

let pp_failure ppf ~counterexample ~messages =
  List.iter (fun m -> Format.fprintf ppf "    %s@." (String.trim m)) messages;
  Format.fprintf ppf "    counterexample:@.";
  String.split_on_char '\n' (String.trim counterexample)
  |> List.iter (fun line -> Format.fprintf ppf "      %s@." line)

let run_one ppf ~corpus_dir ~seed ~count oracle =
  let name = Oracle.name oracle in
  let outcome =
    Obs.Span.with_ ~cat:"fuzz" name
      ~attrs:[ ("seed", Obs.Json.Int seed); ("count", Obs.Json.Int count) ]
    @@ fun () -> Oracle.run ~seed ~count oracle
  in
  let corpus_file =
    match outcome with
    | Oracle.Pass { trials } ->
        Format.fprintf ppf "%-20s ok (%d trials, seed %d)@." name trials seed;
        None
    | Oracle.Fail { counterexample; shrink_steps; messages } ->
        Format.fprintf ppf "%-20s FAIL (seed %d, shrunk %d steps)@." name seed
          shrink_steps;
        pp_failure ppf ~counterexample ~messages;
        Option.map
          (fun dir ->
            let path =
              Corpus.write ~dir
                {
                  Corpus.oracle = name;
                  seed;
                  count;
                  status = Corpus.Open;
                  counterexample;
                }
            in
            Format.fprintf ppf "    wrote %s@." path;
            path)
          corpus_dir
    | Oracle.Crash { counterexample; message } ->
        Format.fprintf ppf "%-20s CRASH (seed %d): %s@." name seed message;
        pp_failure ppf ~counterexample ~messages:[];
        Option.map
          (fun dir ->
            let path =
              Corpus.write ~dir
                {
                  Corpus.oracle = name;
                  seed;
                  count;
                  status = Corpus.Open;
                  counterexample =
                    Printf.sprintf "crash: %s\n%s" message counterexample;
                }
            in
            Format.fprintf ppf "    wrote %s@." path;
            path)
          corpus_dir
  in
  { oracle = name; seed; count; outcome; corpus_file }

let failed r =
  match r.outcome with
  | Oracle.Pass _ -> false
  | Oracle.Fail _ | Oracle.Crash _ -> true

let run ?(names = []) ?corpus_dir ~seed ~budget ppf =
  let selected =
    match names with
    | [] -> Ok Oracle.all
    | names ->
        let missing = List.filter (fun n -> Oracle.find n = None) names in
        if missing <> [] then
          Error
            (Printf.sprintf "unknown oracle(s): %s (try `fuzz list')"
               (String.concat ", " missing))
        else Ok (List.filter_map Oracle.find names)
  in
  (* the corpus directory is checked before any oracle runs *)
  let selected =
    match corpus_dir with
    | None -> selected
    | Some dir -> Result.bind selected (fun o -> Result.map (fun () -> o) (Corpus.prepare dir))
  in
  Result.map
    (fun oracles ->
      let reports =
        List.map
          (fun o ->
            run_one ppf ~corpus_dir ~seed:(derive_seed seed (Oracle.name o))
              ~count:budget o)
          oracles
      in
      let nfail = List.length (List.filter failed reports) in
      if nfail = 0 then
        Format.fprintf ppf "all %d oracles passed@." (List.length reports)
      else Format.fprintf ppf "%d oracle(s) FAILED@." nfail;
      reports)
    selected

type replay_result = Fixed | Still_failing_known of string | Still_failing

let replay ppf path =
  match Corpus.read path with
  | Error m -> Error (Printf.sprintf "%s: %s" path m)
  | Ok entry -> (
      match Oracle.find entry.oracle with
      | None -> Error (Printf.sprintf "%s: unknown oracle %S" path entry.oracle)
      | Some oracle -> (
          match Oracle.run ~seed:entry.seed ~count:entry.count oracle with
          | Oracle.Pass _ ->
              Format.fprintf ppf
                "%s: no longer reproduces (%s, seed %d, %d trials)@." path
                entry.oracle entry.seed entry.count;
              Ok Fixed
          | (Oracle.Fail _ | Oracle.Crash _) as outcome -> (
              let counterexample, messages =
                match outcome with
                | Oracle.Fail { counterexample; messages; _ } ->
                    (counterexample, messages)
                | Oracle.Crash { counterexample; message } ->
                    (counterexample, [ message ])
                | Oracle.Pass _ -> assert false
              in
              match entry.status with
              | Corpus.Known_issue why ->
                  Format.fprintf ppf "%s: still failing (known issue: %s)@."
                    path why;
                  Ok (Still_failing_known why)
              | Corpus.Open ->
                  Format.fprintf ppf "%s: still failing (%s, seed %d)@." path
                    entry.oracle entry.seed;
                  pp_failure ppf ~counterexample ~messages;
                  Ok Still_failing)))

(* Validate exporter output: each argument must parse as JSON; a file
   containing a trace must carry a non-empty traceEvents list whose
   events all have non-negative timestamps.  Files ending in [.folded]
   are validated as folded-stacks profiles instead (lines of
   ["frame;frame;... count"], positive counts, non-empty frames; an
   empty profile is fine — a fast run may take no samples).  When a
   trace and an explain report (a JSON object with an "accounting"
   member) are both given, they must reconcile: the trace's
   engine-outcome journal instants, kind by kind, are the report's
   accounting, so the two outputs of one run come from one event
   stream.  Exit 0 iff every file passes — the @obs smoke alias runs
   this over a real reconfigure invocation with all exporters
   enabled. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_trace path json =
  match Obs.Json.member "traceEvents" json with
  | None -> ()
  | Some (Obs.Json.List []) -> fail "%s: traceEvents is empty" path
  | Some (Obs.Json.List evs) ->
      List.iter
        (fun ev ->
          match Option.bind (Obs.Json.member "ts" ev) Obs.Json.to_float with
          | Some ts when ts >= 0.0 -> ()
          | Some ts -> fail "%s: negative timestamp %f" path ts
          | None -> fail "%s: event without numeric ts" path)
        evs
  | Some _ -> fail "%s: traceEvents is not a list" path

let check_folded path contents =
  List.iter
    (fun line ->
      if line <> "" then
        match String.rindex_opt line ' ' with
        | None -> fail "%s: folded line without a count: %S" path line
        | Some i ->
            let stack = String.sub line 0 i in
            let count = String.sub line (i + 1) (String.length line - i - 1) in
            (match int_of_string_opt count with
            | Some c when c > 0 -> ()
            | Some c -> fail "%s: non-positive sample count %d" path c
            | None -> fail "%s: non-integer sample count %S" path count);
            if stack = "" then fail "%s: empty stack" path;
            List.iter
              (fun frame ->
                if frame = "" then fail "%s: empty frame in %S" path stack)
              (String.split_on_char ';' stack))
    (String.split_on_char '\n' contents)

(* Journal kind of each engine outcome and its explain accounting
   field. *)
let outcomes =
  [
    ("engine.hit", "hits");
    ("engine.build", "builds");
    ("engine.priced", "priced");
    ("engine.unfit", "unfit");
    ("engine.dedup", "dedup");
    ("engine.pruned", "pruned");
    ("engine.infeasible", "infeasible");
  ]

let reconcile (trace_path, trace) (explain_path, explain) =
  let events =
    match Obs.Json.member "traceEvents" trace with
    | Some (Obs.Json.List evs) -> evs
    | _ -> []
  in
  let field k j = Option.bind (Obs.Json.member k j) Obs.Json.to_int in
  let accounting = Obs.Json.member "accounting" explain in
  let account k =
    match Option.bind accounting (field k) with
    | Some n -> n
    | None -> fail "%s: accounting.%s missing" explain_path k
  in
  let is_s k v ev = Obs.Json.member k ev = Some (Obs.Json.String v) in
  let total =
    List.fold_left
      (fun total (kind, k) ->
        let instant ev =
          is_s "cat" "journal" ev && is_s "ph" "i" ev && is_s "name" kind ev
        in
        let n = List.length (List.filter instant events) in
        if n <> account k then
          fail "%s: %d %s journal instants, but %s counts %s = %d" trace_path n
            kind explain_path k (account k);
        total + n)
      0 outcomes
  in
  if total <> account "considered" then
    fail "%s: %d engine-outcome journal instants, but %s considered %d"
      trace_path total explain_path (account "considered")

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then fail "usage: check_json FILE...";
  let traces = ref [] and explains = ref [] in
  List.iter
    (fun path ->
      if Filename.check_suffix path ".folded" then begin
        check_folded path (read_file path);
        Printf.printf "%s: ok\n" path
      end
      else
        match Obs.Json.parse (read_file path) with
        | Error m -> fail "%s: invalid JSON: %s" path m
        | Ok json ->
            check_trace path json;
            if Obs.Json.member "traceEvents" json <> None then
              traces := (path, json) :: !traces;
            if Obs.Json.member "accounting" json <> None then
              explains := (path, json) :: !explains;
            Printf.printf "%s: ok\n" path)
    files;
  match (!traces, !explains) with
  | [ trace ], [ explain ] ->
      reconcile trace explain;
      Printf.printf "%s reconciles with %s\n" (fst trace) (fst explain)
  | _ -> ()

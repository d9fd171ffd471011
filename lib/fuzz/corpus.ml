type status = Open | Known_issue of string

type entry = {
  oracle : string;
  seed : int;
  count : int;
  status : status;
  counterexample : string;
}

let filename e = Printf.sprintf "%s-s%d.repro" e.oracle e.seed

let to_string e =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "oracle: %s\n" e.oracle);
  Buffer.add_string b (Printf.sprintf "seed: %d\n" e.seed);
  Buffer.add_string b (Printf.sprintf "count: %d\n" e.count);
  (match e.status with
  | Open -> Buffer.add_string b "status: open\n"
  | Known_issue why ->
      Buffer.add_string b (Printf.sprintf "status: known-issue %s\n" why));
  Buffer.add_string b "---\n";
  Buffer.add_string b e.counterexample;
  if e.counterexample <> "" && e.counterexample.[String.length e.counterexample - 1] <> '\n'
  then Buffer.add_char b '\n';
  Buffer.contents b

let prepare dir =
  match
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    if not (Sys.is_directory dir) then raise (Sys_error "not a directory");
    (* a directory that takes no file would only fail after a shrink *)
    Sys.remove (Filename.temp_file ~temp_dir:dir "probe" ".repro")
  with
  | () -> Ok ()
  | exception Sys_error m ->
      Error (Printf.sprintf "cannot use corpus directory %s: %s" dir m)

let write ~dir e =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (filename e) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string e));
  path

let of_string text =
  let lines = String.split_on_char '\n' text in
  let rec header acc = function
    | "---" :: rest -> Ok (List.rev acc, String.concat "\n" rest)
    | line :: rest -> header (line :: acc) rest
    | [] -> Error "missing `---' separator"
  in
  match header [] lines with
  | Error _ as e -> e
  | Ok (hdr, counterexample) ->
      let field key =
        let prefix = key ^ ": " in
        List.find_map
          (fun line ->
            if String.length line >= String.length prefix
               && String.sub line 0 (String.length prefix) = prefix
            then
              Some
                (String.sub line (String.length prefix)
                   (String.length line - String.length prefix))
            else if line = key ^ ":" then Some ""
            else None)
          hdr
      in
      let ( let* ) r f = Result.bind r f in
      let require key =
        match field key with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "missing `%s:' header" key)
      in
      let int_of key v =
        match int_of_string_opt (String.trim v) with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "header `%s:' is not an integer: %S" key v)
      in
      let* oracle = require "oracle" in
      let* seed = Result.bind (require "seed") (int_of "seed") in
      let* count = Result.bind (require "count") (int_of "count") in
      let* status =
        match require "status" with
        | Error _ as e -> e
        | Ok "open" -> Ok Open
        | Ok s ->
            let prefix = "known-issue" in
            if String.length s >= String.length prefix
               && String.sub s 0 (String.length prefix) = prefix
            then
              Ok (Known_issue (String.trim
                    (String.sub s (String.length prefix)
                       (String.length s - String.length prefix))))
            else Error (Printf.sprintf "unknown status %S" s)
      in
      Ok { oracle = String.trim oracle; seed; count; status; counterexample }

let read path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      of_string text

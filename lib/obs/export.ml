let pid = 1

let event_json (e : Trace.event) =
  let common_head =
    [
      ("name", Json.String e.Trace.name);
      ("cat", Json.String e.Trace.cat);
    ]
  in
  let common_tail =
    [
      ("pid", Json.Int pid);
      ("tid", Json.Int e.Trace.tid);
      ("args", Json.Obj e.Trace.args);
    ]
  in
  match e.Trace.ph with
  | Trace.Complete ->
      Json.Obj
        (common_head
        @ [
            ("ph", Json.String "X");
            ("ts", Json.Float (Clock.ns_to_us e.Trace.ts_ns));
            ("dur", Json.Float (Clock.ns_to_us e.Trace.dur_ns));
          ]
        @ common_tail)
  | Trace.Instant ->
      Json.Obj
        (common_head
        @ [
            ("ph", Json.String "i");
            ("ts", Json.Float (Clock.ns_to_us e.Trace.ts_ns));
            ("s", Json.String "t");
          ]
        @ common_tail)
  | Trace.Counter ->
      Json.Obj
        (common_head
        @ [
            ("ph", Json.String "C");
            ("ts", Json.Float (Clock.ns_to_us e.Trace.ts_ns));
          ]
        @ common_tail)

let trace_json () =
  Json.Obj
    [
      ("displayTimeUnit", Json.String "ms");
      ("traceEvents", Json.List (List.map event_json (Trace.events ())));
    ]

let trace_to_string () = Json.to_string (trace_json ())

let write_trace oc = output_string oc (trace_to_string ())

let metrics_json () = Metrics.to_json (Metrics.snapshot ())

let write_metrics oc = output_string oc (Json.to_string (metrics_json ()))

let write_profile oc = output_string oc (Profile.folded ())

(* Decision-provenance journal: a structured record of *why* the
   pipeline did what it did (per-candidate engine outcomes, solver
   incumbent improvements, bound tightness), kept as the "journal"
   category of the one trace stream.  Its own switch lets a run keep
   the journal without tracing its spans. *)

let cat = "journal"
let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let record ~kind fields =
  if enabled () then
    Trace.record
      {
        Trace.name = kind;
        cat;
        ph = Trace.Instant;
        ts_ns = Clock.since_start_ns ();
        dur_ns = 0L;
        tid = (Domain.self () :> int);
        args = fields;
      }

let events () = List.filter (fun e -> e.Trace.cat = cat) (Trace.events ())
let clear () = Trace.clear ~cat ()

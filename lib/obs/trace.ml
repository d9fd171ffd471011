type phase = Complete | Instant | Counter

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts_ns : int64;
  dur_ns : int64;
  tid : int;
  args : (string * Json.t) list;
}

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* One buffer per domain, newest event first.  The owning domain is
   the only writer, so appends need no lock; the global registry of
   buffers is tiny and mutex-protected. *)
type buffer = { tid : int; mutable items : event list }

let registry : buffer list ref = ref []
let registry_lock = Mutex.create ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { tid = (Domain.self () :> int); items = [] } in
      Mutex.lock registry_lock;
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      b)

let record ev =
  let b = Domain.DLS.get buffer_key in
  b.items <- ev :: b.items

let buffers () =
  Mutex.lock registry_lock;
  let bs = !registry in
  Mutex.unlock registry_lock;
  bs

let events () =
  let all = List.concat_map (fun b -> List.rev b.items) (buffers ()) in
  List.stable_sort (fun a b -> Int64.compare a.ts_ns b.ts_ns) all

let events_by_domain () =
  List.filter_map
    (fun b ->
      match List.rev b.items with [] -> None | evs -> Some (b.tid, evs))
    (buffers ())

let clear ?cat () =
  let keep =
    match cat with None -> fun _ -> false | Some c -> fun e -> e.cat <> c
  in
  Mutex.lock registry_lock;
  List.iter (fun b -> b.items <- List.filter keep b.items) !registry;
  Mutex.unlock registry_lock

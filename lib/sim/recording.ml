(* Record once, replay the caches.

   A cache configuration changes only the hit/miss sequence over an
   execution's references, never the references themselves: the
   instruction and address stream depends on the program and the
   register-window count alone.  One recorded execution therefore
   serves every cache shape through the caches alone.

   The stream holds one cold epoch:

   - fetches, as runs of consecutive 16-byte blocks.  Every valid
     cache line is 16 or 32 bytes, so a block lies inside one line of
     every geometry, and fetches that stay inside a block are MRU-line
     hits the simulator never probes.  A run is packed as
     [first lsl run_bits lor length];
   - data references in program order, packed as [address lsl 2 lor
     kind]: program loads and stores, window-fill loads and
     window-spill stores;
   - at each window mark, the number of fetch runs and data references
     before it, with the run's cumulative profile there.

   A replay drives a fresh cache of one side through its stream for
   the cold epoch and, when the run had more than one repetition, once
   more for the warm epoch, with exactly the simulator's probe rules
   (see {!Cpu}): the MRU-line shortcut for fetches and data, no
   allocation on a store miss (which leaves the MRU line alone), the
   MRU line forgotten after a window trap and at a reconfiguration,
   and the MRU state carried across window marks and epochs.  It
   counts misses per epoch and window, so every union of windows is a
   segment it can answer. *)

let block_bits = 4
let run_bits = 30
let run_mask = (1 lsl run_bits) - 1

(* A block holds four 4-byte instructions: instruction [pc] is fetched
   from byte [4 * pc] (see {!Decode}). *)
let block pc = pc lsr (block_bits - 2)

let k_load = 0
let k_store = 1
let k_fill = 2
let k_spill = 3

(* {1 Chunked streams}

   Appends go into fixed-size chunks, so a growing stream never copies
   what it already holds. *)

let chunk_bits = 12
let chunk_len = 1 lsl chunk_bits
let chunk_mask = chunk_len - 1

type buffer = {
  mutable full : int array list;  (* filled chunks, newest first *)
  mutable cur : int array;
  mutable used : int;  (* entries in [cur] *)
}

let buffer () = { full = []; cur = Array.make chunk_len 0; used = 0 }

let push b v =
  if b.used = chunk_len then begin
    b.full <- b.cur :: b.full;
    b.cur <- Array.make chunk_len 0;
    b.used <- 0
  end;
  Array.unsafe_set b.cur b.used v;
  b.used <- b.used + 1

let buffer_length b = (List.length b.full * chunk_len) + b.used

type stream = { chunks : int array array; length : int }

(* The last chunk is trimmed to its entries. *)
let freeze b =
  {
    chunks = Array.of_list (List.rev (Array.sub b.cur 0 b.used :: b.full));
    length = buffer_length b;
  }

let[@inline] get s i =
  Array.unsafe_get (Array.unsafe_get s.chunks (i lsr chunk_bits)) (i land chunk_mask)

(* {1 Recording} *)

type recorder = {
  fetch : buffer;
  data : buffer;
  window : int;
  mutable seq_start : int;  (* pc at which the current sequential stretch began *)
  mutable first : int;  (* open block run, [-1] when none *)
  mutable last : int;
  mutable marks : (int * int) list;  (* (fetch runs, data refs) per mark, newest first *)
  mutable snaps : Profiler.t list;
      (* cumulative profile at each mark and at the seal, newest first *)
}

let window r = r.window

let close_run r =
  if r.first >= 0 then begin
    push r.fetch ((r.first lsl run_bits) lor (r.last - r.first + 1));
    r.first <- -1
  end

(* Blocks [a..b], fetched in order after the open run: consecutive
   repeats of a block are one fetch, so a stretch starting in or right
   after the open run's last block extends it. *)
let extend r a b =
  if r.first >= 0 && (a = r.last || a = r.last + 1) then r.last <- b
  else begin
    close_run r;
    r.first <- a;
    r.last <- b
  end

(* The sequential stretch from [seq_start] through [upto] retired. *)
let retire r upto =
  if upto >= r.seq_start then extend r (block r.seq_start) (block upto)

let jump r ~from ~target =
  retire r from;
  r.seq_start <- target

let load r addr = push r.data ((addr lsl 2) lor k_load)
let store r addr = push r.data ((addr lsl 2) lor k_store)
let fill r addr = push r.data ((addr lsl 2) lor k_fill)
let spill r addr = push r.data ((addr lsl 2) lor k_spill)

(* Everything before [pc] retired: close the stream there. *)
let cut r ~pc =
  retire r (pc - 1);
  r.seq_start <- pc;
  close_run r

let mark r ~pc ~profile =
  cut r ~pc;
  r.marks <- (buffer_length r.fetch, buffer_length r.data) :: r.marks;
  r.snaps <- Profiler.copy profile :: r.snaps

let seal r ~pc ~profile =
  cut r ~pc;
  r.snaps <- Profiler.copy profile :: r.snaps

type replay = {
  side : Cache.side;
  reads : int array;  (* read (fetch) misses per epoch-major window slot *)
  writes : int array;  (* write misses per slot; none on the icache *)
}

type t = {
  fetches : stream;
  refs : stream;
  window : int;
  fetch_marks : int array;  (* fetch run at which window [i + 1] starts *)
  data_marks : int array;
  reps : int;
  checksum : int;
  windows : Profiler.t array;  (* cold epoch, per window *)
  whole : Profiler.t;  (* the cold epoch *)
  own : replay * replay;
}

(* {1 Capture}

   Which run is recorded is decided per domain: [capture f] arms this
   domain's slot with its window, the first {!Machine.run} [f] makes
   takes it ([start]) and leaves its recording there ([deposit]). *)

type slot = Idle | Armed of int | Taken | Captured of t

let slot = Domain.DLS.new_key (fun () -> ref Idle)

let start ~entry =
  let cell = Domain.DLS.get slot in
  match !cell with
  | Armed window ->
      cell := Taken;
      Some
        {
          fetch = buffer ();
          data = buffer ();
          window;
          seq_start = entry;
          first = -1;
          last = -1;
          marks = [];
          snaps = [];
        }
  | Idle | Taken | Captured _ -> None

let capture ?(window = max_int) f =
  if window < 1 then invalid_arg "Recording.capture: window must be >= 1";
  let cell = Domain.DLS.get slot in
  let saved = !cell in
  cell := Armed window;
  match f () with
  | v -> (
      let got = !cell in
      cell := saved;
      match got with
      | Captured t -> (v, t)
      | Idle | Armed _ | Taken ->
          failwith "Recording.capture: no run was recorded")
  | exception e ->
      cell := saved;
      raise e

let reps t = t.reps
let checksum t = t.checksum
let instructions t = t.whole.Profiler.instructions
let profile t = t.whole
let own t = t.own
let nwindows t = Array.length t.windows

let serves t ~window =
  window >= instructions t || (t.window <> max_int && window mod t.window = 0)

let window_starts t ~window =
  let total = instructions t in
  let rec go b = if b >= total then [] else b :: go (b + window) in
  if window >= total then [] else go window

(* The window a boundary at retired instruction [b] opens: past the
   end, the number of windows. *)
let window_at t b =
  if b >= instructions t then nwindows t
  else if b < 0 || t.window = max_int || b mod t.window <> 0 then
    invalid_arg
      (Printf.sprintf "Recording: boundary %d is not a window mark (window %d)"
         b t.window)
  else b / t.window

(* {1 Replay} *)

let m_replays =
  Obs.Metrics.Counter.v "sim.replays"
    ~help:"cache replays of recorded reference streams"

type action = Keep | Fresh of Arch.Config.cache

(* Entries [lo, hi) of a stream holding window [i]. *)
let bounds marks length i =
  ( (if i = 0 then 0 else marks.(i - 1)),
    if i = Array.length marks then length else marks.(i) )

(* One window's fetch runs; [last] is the MRU line. *)
let replay_fetches t cache last reads slot i =
  let line_bits = Cache.line_shift cache in
  let shift = line_bits - block_bits in
  let lo, hi = bounds t.fetch_marks t.fetches.length i in
  let misses = ref 0 in
  for k = lo to hi - 1 do
    let run = get t.fetches k in
    let first = run lsr run_bits in
    (* a run's blocks cover consecutive lines, each fetched once *)
    for line = first lsr shift to (first + (run land run_mask) - 1) lsr shift do
      if line <> !last then begin
        last := line;
        if not (Cache.read cache (line lsl line_bits)) then incr misses
      end
    done
  done;
  reads.(slot) <- reads.(slot) + !misses

let replay_data t cache last reads writes slot i =
  let shift = Cache.line_shift cache in
  let lo, hi = bounds t.data_marks t.refs.length i in
  for k = lo to hi - 1 do
    let r = get t.refs k in
    let addr = r lsr 2 in
    let kind = r land 3 in
    if kind = k_load then begin
      let line = addr lsr shift in
      if line <> !last then begin
        last := line;
        if not (Cache.read cache addr) then reads.(slot) <- reads.(slot) + 1
      end
    end
    else if kind = k_store then begin
      let line = addr lsr shift in
      if line <> !last then
        if Cache.write cache addr then last := line
        else writes.(slot) <- writes.(slot) + 1
    end
    else begin
      (* a window trap goes through the plain probes, and its fills
         may evict the MRU line *)
      (if kind = k_fill then begin
         if not (Cache.read cache addr) then reads.(slot) <- reads.(slot) + 1
       end
       else if not (Cache.write cache addr) then
         writes.(slot) <- writes.(slot) + 1);
      last := -1
    end
  done

let epochs t = if t.reps = 1 then 1 else 2

let replay ?(switches = []) ?wrap t side geometry =
  Obs.Span.with_ ~cat:"sim" "sim.replay" @@ fun () ->
  Obs.Metrics.Counter.incr m_replays;
  let n = nwindows t in
  (* the action at the start of each window of an epoch *)
  let at = Array.make n None in
  List.iter
    (fun (b, action) ->
      let i = window_at t b in
      if i <= 0 || i >= n then
        invalid_arg "Recording.replay: a switch outside the execution";
      at.(i) <- Some action)
    switches;
  let slots = epochs t * n in
  let reads = Array.make slots 0 and writes = Array.make slots 0 in
  let cache = ref (Cache.fresh side geometry) in
  let last = ref (-1) in
  for e = 0 to epochs t - 1 do
    for i = 0 to n - 1 do
      (match if i = 0 then (if e = 0 then None else wrap) else at.(i) with
      | None -> ()
      | Some Keep -> last := -1
      | Some (Fresh g) ->
          cache := Cache.fresh side g;
          last := -1);
      let slot = (e * n) + i in
      match side with
      | Cache.Instruction -> replay_fetches t !cache last reads slot i
      | Cache.Data -> replay_data t !cache last reads writes slot i
    done
  done;
  { side; reads; writes }

(* The misses of the simulated cold windows, as the replay of the
   recorded caches reports them. *)
let simulated t side =
  let n = nwindows t in
  let reads = Array.make (epochs t * n) 0 and writes = Array.make (epochs t * n) 0 in
  Array.iteri
    (fun i (p : Profiler.t) ->
      match side with
      | Cache.Instruction -> reads.(i) <- p.Profiler.icache_misses
      | Cache.Data ->
          reads.(i) <- p.Profiler.dcache_read_misses;
          writes.(i) <- p.Profiler.dcache_write_misses)
    t.windows;
  { side; reads; writes }

let deposit r ~reps ~checksum ~icache ~dcache =
  let marks = Array.of_list (List.rev r.marks) in
  let snaps = List.rev r.snaps in
  let rec deltas prev = function
    | [] -> []
    | s :: tl -> Profiler.sub s prev :: deltas s tl
  in
  let windows = Array.of_list (deltas (Profiler.create ()) snaps) in
  let none side = { side; reads = [||]; writes = [||] } in
  let t =
    {
      fetches = freeze r.fetch;
      refs = freeze r.data;
      window = r.window;
      fetch_marks = Array.map fst marks;
      data_marks = Array.map snd marks;
      reps;
      checksum;
      windows;
      whole = List.nth snaps (List.length snaps - 1);
      own = (none Cache.Instruction, none Cache.Data);
    }
  in
  let own side geometry =
    let sim = simulated t side in
    if reps = 1 then sim
    else begin
      (* the replay's cold epoch must be the simulation's, window by
         window: the warm epoch is trusted to it *)
      let r = replay t side geometry in
      for i = 0 to nwindows t - 1 do
        if r.reads.(i) <> sim.reads.(i) || r.writes.(i) <> sim.writes.(i) then
          failwith
            (Printf.sprintf
               "Recording: the replay of the recorded %s disagrees with the \
                simulation in window %d"
               (match side with Cache.Instruction -> "icache" | Cache.Data -> "dcache")
               i)
      done;
      r
    end
  in
  let t = { t with own = (own Cache.Instruction icache, own Cache.Data dcache) } in
  (Domain.DLS.get slot) := Captured t;
  t

(* {1 Segments} *)

let segments t ~icache ~dcache ~epoch ~boundaries =
  if icache.side <> Cache.Instruction || dcache.side <> Cache.Data then
    invalid_arg "Recording.segments: replays of the wrong sides";
  if epoch < 0 || epoch >= epochs t then
    invalid_arg "Recording.segments: no such epoch";
  let n = nwindows t in
  if Array.length icache.reads <> epochs t * n
     || Array.length dcache.reads <> epochs t * n
  then invalid_arg "Recording.segments: replays of another recording";
  let segment lo hi =
    let p =
      if lo = 0 && hi = n then Profiler.copy t.whole
      else begin
        let p = ref (Profiler.create ()) in
        for i = lo to hi - 1 do
          p := Profiler.add !p t.windows.(i)
        done;
        !p
      end
    in
    let sum a =
      let s = ref 0 in
      for i = lo to hi - 1 do
        s := !s + a.((epoch * n) + i)
      done;
      !s
    in
    p.Profiler.icache_misses <- sum icache.reads;
    p.Profiler.dcache_read_misses <- sum dcache.reads;
    p.Profiler.dcache_write_misses <- sum dcache.writes;
    p
  in
  let rec go lo = function
    | [] -> [ segment lo n ]
    | b :: rest ->
        let hi = window_at t b in
        if hi < lo then invalid_arg "Recording.segments: boundaries must increase";
        segment lo hi :: go hi rest
  in
  go 0 boundaries

let profiles t ~icache ~dcache ~boundaries =
  let cold = segments t ~icache ~dcache ~epoch:0 ~boundaries in
  if t.reps = 1 then cold
  else
    List.map2
      (fun cold warm -> Profiler.scale_add cold ~warm ~reps:t.reps)
      cold
      (segments t ~icache ~dcache ~epoch:1 ~boundaries)

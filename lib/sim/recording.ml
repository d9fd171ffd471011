(* Record once, replay the caches.

   A cache configuration changes only the hit/miss sequence over an
   execution's references, never the references themselves: the
   instruction and address stream depends on the program and the
   register-window count alone.  One recorded execution therefore
   serves every cache shape through the caches alone.

   Only the references that can miss or change cache state are kept.
   Every valid way holds at least 1 KB and every valid line is 16 or
   32 bytes, so a line's {e class}, [line mod (1024 / line_bytes)], is
   a function of its set index in every valid geometry: two lines of
   different classes never share a set.  A reference is dropped when,
   since the last window mark, the last reference to its class was a
   load or fill of the same line, or a store dropped by this rule.
   The line is then resident and most recently used in its set in
   every geometry, and nothing of its set moved since, so the
   reference hits everywhere and re-touching the MRU way changes no
   tags, no recency order, no LRR pointer and draws no random victim.
   A kept store forgets its class: with no allocation on a store miss,
   whether its line is resident differs between geometries.  The
   classes are forgotten at every window mark, where a phased run may
   switch to a cold cache.  The class depends on the line size, so
   the recorder keeps four streams, one per cache side and valid line
   size, each filtered by its own classes:

   - fetches: the lines of sequential runs of 16-byte blocks.  A block
     lies inside one line of every geometry, and fetches that stay
     inside a block are MRU-line hits the simulator never probes;
   - data references in program order, packed as [line lsl 2 lor
     kind]: program loads and stores, window-fill loads and
     window-spill stores;
   - at each window mark, each stream's length before it, with the
     run's cumulative profile there.

   A replay drives a fresh cache of one side through its stream for
   the cold epoch and, when the run had more than one repetition, once
   more for the warm epoch, window by window from the stream of the
   cache's current line size, with exactly the simulator's probe rules
   (see {!Cpu}): the MRU-line shortcut for fetches and data, no
   allocation on a store miss (which leaves the MRU line alone), the
   MRU line forgotten after a window trap and at a reconfiguration,
   and the MRU state carried across window marks and epochs.  Under
   those rules a dropped reference would have been a hit that changes
   nothing, so dropping it changes no count.  A replay counts misses
   per epoch and window, so every union of windows is a segment it
   can answer. *)

let block_bits = 4
let way_bytes = 1024  (* the smallest valid way *)

(* A block holds four 4-byte instructions: instruction [pc] is fetched
   from byte [4 * pc] (see {!Decode}). *)
let block pc = pc lsr (block_bits - 2)

let k_load = 0
let k_store = 1
let k_fill = 2
let k_spill = 3

(* The four streams: per side, 16- then 32-byte lines. *)
let stream_index side ~line_words =
  (match side with Cache.Instruction -> 0 | Cache.Data -> 2)
  + if line_words = 4 then 0 else 1

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

type stream = {
  chunks : int array array;
  length : int;
  marks : int array;  (* entry at which window [i + 1] starts *)
}

let[@inline] get s i =
  Array.unsafe_get (Array.unsafe_get s.chunks (i lsr chunk_bits)) (i land chunk_mask)

(* {1 Recording} *)

(* One stream's filter: per class, the line whose load or fill was the
   class's last reference since the mark, [-1] when none. *)
type filter = {
  shift : int;  (* log2 of the line size in bytes *)
  classes : int array;
  out : buffer;
  mutable fmarks : int list;  (* stream length at each mark, newest first *)
}

let filter shift =
  {
    shift;
    classes = Array.make (way_bytes lsr shift) (-1);
    out = buffer ();
    fmarks = [];
  }

let[@inline] keep_fetch f line =
  let c = line land (Array.length f.classes - 1) in
  if Array.unsafe_get f.classes c <> line then begin
    Array.unsafe_set f.classes c line;
    push f.out line
  end

let[@inline] keep_data f addr kind =
  let line = addr lsr f.shift in
  let c = line land (Array.length f.classes - 1) in
  if Array.unsafe_get f.classes c <> line then begin
    (* a load or fill leaves its line resident everywhere; a store
       leaves it resident only where it was *)
    Array.unsafe_set f.classes c (if kind land 1 = 0 then line else -1);
    push f.out ((line lsl 2) lor kind)
  end

let mark_filter f =
  f.fmarks <- buffer_length f.out :: f.fmarks;
  Array.fill f.classes 0 (Array.length f.classes) (-1)

type recorder = {
  i16 : filter;
  i32 : filter;
  d16 : filter;
  d32 : filter;
  window : int;
  mutable seq_start : int;  (* pc at which the current sequential stretch began *)
  mutable first : int;  (* open block run, [-1] when none *)
  mutable last : int;
  mutable snaps : Profiler.t list;
      (* cumulative profile at each mark and at the seal, newest first *)
}

let window r = r.window

(* The filters in {!stream_index} order. *)
let filters r = [| r.i16; r.i32; r.d16; r.d32 |]

(* The open run's blocks, each line of them fetched once. *)
let close_run r =
  if r.first >= 0 then begin
    for line = r.first to r.last do
      keep_fetch r.i16 line
    done;
    for line = r.first lsr 1 to r.last lsr 1 do
      keep_fetch r.i32 line
    done;
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

let data r addr kind =
  keep_data r.d16 addr kind;
  keep_data r.d32 addr kind

let load r addr = data r addr k_load
let store r addr = data r addr k_store
let fill r addr = data r addr k_fill
let spill r addr = data r addr k_spill

(* Everything before [pc] retired: close the stream there. *)
let cut r ~pc =
  retire r (pc - 1);
  r.seq_start <- pc;
  close_run r

let mark r ~pc ~profile =
  cut r ~pc;
  Array.iter mark_filter (filters r);
  r.snaps <- Profiler.copy profile :: r.snaps

let seal r ~pc ~profile =
  cut r ~pc;
  r.snaps <- Profiler.copy profile :: r.snaps

(* The last chunk is trimmed to its entries. *)
let freeze f =
  let b = f.out in
  {
    chunks = Array.of_list (List.rev (Array.sub b.cur 0 b.used :: b.full));
    length = buffer_length b;
    marks = Array.of_list (List.rev f.fmarks);
  }

type replay = {
  side : Cache.side;
  reads : int array;  (* read (fetch) misses per epoch-major window slot *)
  writes : int array;  (* write misses per slot; none on the icache *)
}

type t = {
  streams : stream array;  (* in {!stream_index} order *)
  window : int;
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
          i16 = filter 4;
          i32 = filter 5;
          d16 = filter 4;
          d32 = filter 5;
          window;
          seq_start = entry;
          first = -1;
          last = -1;
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

let m_refs =
  Obs.Metrics.Counter.v "sim.replay.refs"
    ~help:"recorded references the cache replays walked"

type action = Keep | Fresh of Arch.Config.cache

(* The stream a cache of this geometry replays; the filter's classes
   hold only for 16- and 32-byte lines and ways of at least 1 KB. *)
let stream_for t side (g : Arch.Config.cache) =
  if g.Arch.Config.way_kb * 1024 < way_bytes
     || (g.Arch.Config.line_words <> 4 && g.Arch.Config.line_words <> 8)
  then
    invalid_arg
      (Printf.sprintf
         "Recording.replay: %d KB ways of %d-word lines are outside the \
          recorded classes"
         g.Arch.Config.way_kb g.Arch.Config.line_words);
  t.streams.(stream_index side ~line_words:g.Arch.Config.line_words)

(* Entries [lo, hi) of a stream holding window [i]. *)
let bounds s i =
  ( (if i = 0 then 0 else s.marks.(i - 1)),
    if i = Array.length s.marks then s.length else s.marks.(i) )

(* One window's fetched lines; [last] is the MRU line. *)
let replay_fetches s cache last reads slot i =
  let shift = Cache.line_shift cache in
  let lo, hi = bounds s i in
  let misses = ref 0 in
  for k = lo to hi - 1 do
    let line = get s k in
    if line <> !last then begin
      last := line;
      if not (Cache.read cache (line lsl shift)) then incr misses
    end
  done;
  reads.(slot) <- reads.(slot) + !misses;
  hi - lo

let replay_data s cache last reads writes slot i =
  let shift = Cache.line_shift cache in
  let lo, hi = bounds s i in
  for k = lo to hi - 1 do
    let r = get s k in
    let line = r lsr 2 in
    let addr = line lsl shift in
    let kind = r land 3 in
    if kind = k_load then begin
      if line <> !last then begin
        last := line;
        if not (Cache.read cache addr) then reads.(slot) <- reads.(slot) + 1
      end
    end
    else if kind = k_store then begin
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
  done;
  hi - lo

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
  let stream = ref (stream_for t side geometry) in
  let cache = ref (Cache.fresh side geometry) in
  let last = ref (-1) in
  let walked = ref 0 in
  for e = 0 to epochs t - 1 do
    for i = 0 to n - 1 do
      (match if i = 0 then (if e = 0 then None else wrap) else at.(i) with
      | None -> ()
      | Some Keep -> last := -1
      | Some (Fresh g) ->
          (* a new geometry may have a new line size: its stream *)
          stream := stream_for t side g;
          cache := Cache.fresh side g;
          last := -1);
      let slot = (e * n) + i in
      walked :=
        !walked
        +
        match side with
        | Cache.Instruction -> replay_fetches !stream !cache last reads slot i
        | Cache.Data -> replay_data !stream !cache last reads writes slot i
    done
  done;
  Obs.Metrics.Counter.incr ~by:!walked m_refs;
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
  let snaps = List.rev r.snaps in
  let rec deltas prev = function
    | [] -> []
    | s :: tl -> Profiler.sub s prev :: deltas s tl
  in
  let windows = Array.of_list (deltas (Profiler.create ()) snaps) in
  let none side = { side; reads = [||]; writes = [||] } in
  let t =
    {
      streams = Array.map freeze (filters r);
      window = r.window;
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

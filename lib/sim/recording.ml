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
   - at each segment boundary, the number of fetch runs and data
     references before it.

   A replay drives a fresh cache of one side through its stream for
   the cold epoch and, when the run had more than one repetition, once
   more for the warm epoch, with exactly the simulator's probe rules
   (see {!Cpu}): the MRU-line shortcut for fetches and data, no
   allocation on a store miss (which leaves the MRU line alone), the
   MRU line forgotten after a window trap, and the MRU state carried
   across segment boundaries and epochs. *)

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
  mutable seq_start : int;  (* pc at which the current sequential stretch began *)
  mutable first : int;  (* open block run, [-1] when none *)
  mutable last : int;
  mutable marks : (int * int) list;  (* (fetch runs, data refs) per boundary, newest first *)
}

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

let boundary r ~pc =
  cut r ~pc;
  r.marks <- (buffer_length r.fetch, buffer_length r.data) :: r.marks

let seal = cut

type t = {
  fetches : stream;
  refs : stream;
  fetch_marks : int array;  (* fetch run at which segment [s + 1] starts *)
  data_marks : int array;
  reps : int;
  profile : Profiler.t;
  cold : Profiler.t array;  (* per segment *)
  warm : Profiler.t array;  (* per segment; empty when [reps = 1] *)
}

(* {1 Capture}

   Which run is recorded is decided per domain: [capture f] arms this
   domain's slot, the first {!Machine} run [f] makes takes it
   ([start]) and leaves its recording there ([deposit]). *)

type slot = Idle | Armed | Taken | Captured of t

let slot = Domain.DLS.new_key (fun () -> ref Idle)

let start ~entry =
  let cell = Domain.DLS.get slot in
  match !cell with
  | Armed ->
      cell := Taken;
      Some
        {
          fetch = buffer ();
          data = buffer ();
          seq_start = entry;
          first = -1;
          last = -1;
          marks = [];
        }
  | Idle | Taken | Captured _ -> None

let deposit r ~reps ~profile ~cold ~warm =
  let marks = Array.of_list (List.rev r.marks) in
  (Domain.DLS.get slot)
  := Captured
       {
         fetches = freeze r.fetch;
         refs = freeze r.data;
         fetch_marks = Array.map fst marks;
         data_marks = Array.map snd marks;
         reps;
         profile;
         cold = Array.of_list cold;
         warm = Array.of_list warm;
       }

let capture f =
  let cell = Domain.DLS.get slot in
  let saved = !cell in
  cell := Armed;
  match f () with
  | v -> (
      let got = !cell in
      cell := saved;
      match got with
      | Captured t -> (v, t)
      | Idle | Armed | Taken -> failwith "Recording.capture: no run was recorded")
  | exception e ->
      cell := saved;
      raise e

let segments t = Array.length t.cold
let profile t = t.profile

let loads t =
  let out = ref [] in
  for i = t.refs.length - 1 downto 0 do
    let e = get t.refs i in
    if e land 3 = k_load then out := (e lsr 2) :: !out
  done;
  Array.of_list !out

(* {1 Replay} *)

let m_replays =
  Obs.Metrics.Counter.v "sim.replays"
    ~help:"cache replays of recorded reference streams"

type replay = {
  side : Cache.side;
  reads : int array;  (* read (fetch) misses per epoch-major slot *)
  writes : int array;  (* write misses per slot; none on the icache *)
}

(* Entries [lo, hi) of a stream holding segment [s]. *)
let bounds marks length s =
  ( (if s = 0 then 0 else marks.(s - 1)),
    if s = Array.length marks then length else marks.(s) )

let replay_fetches t cache reads =
  let line_bits = Cache.line_shift cache in
  let shift = line_bits - block_bits in
  let nseg = segments t in
  let last = ref (-1) in
  for e = 0 to Array.length reads / nseg - 1 do
    for s = 0 to nseg - 1 do
      let slot = (e * nseg) + s in
      let lo, hi = bounds t.fetch_marks t.fetches.length s in
      for i = lo to hi - 1 do
        let run = get t.fetches i in
        let first = run lsr run_bits in
        (* a run's blocks cover consecutive lines, each fetched once *)
        for line = first lsr shift to (first + (run land run_mask) - 1) lsr shift do
          if line <> !last then begin
            last := line;
            if not (Cache.read cache (line lsl line_bits)) then
              reads.(slot) <- reads.(slot) + 1
          end
        done
      done
    done
  done

let replay_data t cache reads writes =
  let shift = Cache.line_shift cache in
  let nseg = segments t in
  let last = ref (-1) in
  for e = 0 to Array.length reads / nseg - 1 do
    for s = 0 to nseg - 1 do
      let slot = (e * nseg) + s in
      let lo, hi = bounds t.data_marks t.refs.length s in
      for i = lo to hi - 1 do
        let r = get t.refs i in
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
          (* a window trap goes through the plain probes, and its
             fills may evict the MRU line *)
          (if kind = k_fill then begin
             if not (Cache.read cache addr) then reads.(slot) <- reads.(slot) + 1
           end
           else if not (Cache.write cache addr) then
             writes.(slot) <- writes.(slot) + 1);
          last := -1
        end
      done
    done
  done

let replay t side geometry =
  Obs.Span.with_ ~cat:"sim" "sim.replay" @@ fun () ->
  Obs.Metrics.Counter.incr m_replays;
  let slots = segments t * if t.reps = 1 then 1 else 2 in
  let reads = Array.make slots 0 and writes = Array.make slots 0 in
  let cache = Cache.fresh side geometry in
  (match side with
  | Cache.Instruction -> replay_fetches t cache reads
  | Cache.Data -> replay_data t cache reads writes);
  { side; reads; writes }

let profiles t ~icache ~dcache =
  if icache.side <> Cache.Instruction || dcache.side <> Cache.Data then
    invalid_arg "Recording.profiles: replays of the wrong sides";
  let nseg = segments t in
  List.init nseg (fun s ->
      let epoch e (p : Profiler.t) =
        let slot = (e * nseg) + s in
        {
          p with
          Profiler.icache_misses = icache.reads.(slot);
          dcache_read_misses = dcache.reads.(slot);
          dcache_write_misses = dcache.writes.(slot);
        }
      in
      let cold = epoch 0 t.cold.(s) in
      if t.reps = 1 then cold
      else Profiler.scale_add cold ~warm:(epoch 1 t.warm.(s)) ~reps:t.reps)

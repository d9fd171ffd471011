type stats = {
  mutable reads : int;
  mutable read_misses : int;
  mutable writes : int;
  mutable write_misses : int;
}

type t = {
  ways : int;
  line_bytes : int;
  sets : int;
  line_shift : int;
  set_shift : int;
  set_mask : int;
  tags : int array;     (* set-major: tags.(set * ways + way); -1 = invalid *)
  policy : Replacement.t;
  stats : stats;
}

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let create ~ways ~way_kb ~line_words ~replacement ~rng =
  if ways < 1 then invalid_arg "Cache.create: ways must be >= 1";
  let line_bytes = line_words * 4 in
  let sets = way_kb * 1024 / line_bytes in
  {
    ways;
    line_bytes;
    sets;
    line_shift = log2 line_bytes;
    set_shift = log2 sets;
    set_mask = sets - 1;
    tags = Array.make (sets * ways) (-1);
    policy = Replacement.create replacement ~sets ~ways ~rng;
    stats = { reads = 0; read_misses = 0; writes = 0; write_misses = 0 };
  }

type side = Instruction | Data

(* The simulator's caches: each side restarts from its own fixed
   seed, so a cold cache of a given geometry behaves identically in
   every run and every replay. *)
let fresh side (c : Arch.Config.cache) =
  let seed = match side with Instruction -> 0x1CE | Data -> 0xDCE in
  create ~ways:c.ways ~way_kb:c.way_kb ~line_words:c.line_words
    ~replacement:c.replacement ~rng:(Rng.create ~seed)

(* Allocation-free probe: the way holding [addr]'s line, or -1.  The
   set/tag split is recomputed by callers from the same shifts, and the
   way scans are top-level functions rather than local closures (the
   simulator's and the replays' hottest path; an allocation here
   measurably hurts multi-domain runs via minor-GC synchronization).
   A tag is never negative, so an invalid way (tag -1) never matches. *)
let rec find_from t base tag w =
  if w = t.ways then -1
  else if t.tags.(base + w) = tag then w
  else find_from t base tag (w + 1)

let find_way t ~set ~tag = find_from t (set * t.ways) tag 0

let rec first_invalid t base w =
  if w = t.ways then -1
  else if t.tags.(base + w) < 0 then w
  else first_invalid t base (w + 1)

let fill t ~set ~tag =
  let base = set * t.ways in
  let way =
    match first_invalid t base 0 with
    | -1 -> Replacement.victim t.policy ~set
    | w -> w
  in
  t.tags.(base + way) <- tag;
  Replacement.filled t.policy ~set ~way

let read t addr =
  let line = addr lsr t.line_shift in
  let set = line land t.set_mask in
  let tag = line lsr t.set_shift in
  let way = find_way t ~set ~tag in
  t.stats.reads <- t.stats.reads + 1;
  if way >= 0 then begin
    Replacement.touch t.policy ~set ~way;
    true
  end
  else begin
    t.stats.read_misses <- t.stats.read_misses + 1;
    fill t ~set ~tag;
    false
  end

let write t addr =
  let line = addr lsr t.line_shift in
  let set = line land t.set_mask in
  let tag = line lsr t.set_shift in
  let way = find_way t ~set ~tag in
  t.stats.writes <- t.stats.writes + 1;
  if way >= 0 then begin
    Replacement.touch t.policy ~set ~way;
    true
  end
  else begin
    t.stats.write_misses <- t.stats.write_misses + 1;
    false
  end

let stats t = t.stats

let reset_stats t =
  t.stats.reads <- 0;
  t.stats.read_misses <- 0;
  t.stats.writes <- 0;
  t.stats.write_misses <- 0

let clear t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Replacement.reset t.policy;
  reset_stats t

let line_bytes t = t.line_bytes
let line_shift t = t.line_shift
let sets t = t.sets

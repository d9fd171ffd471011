type t = {
  mutable cycles : int;
  mutable instructions : int;
  mutable icache_misses : int;
  mutable dcache_reads : int;
  mutable dcache_read_misses : int;
  mutable dcache_writes : int;
  mutable dcache_write_misses : int;
  mutable branches : int;
  mutable taken_branches : int;
  mutable mults : int;
  mutable divs : int;
  mutable window_overflows : int;
  mutable window_underflows : int;
  mutable load_interlocks : int;
  mutable icc_hold_stalls : int;
  mutable shifts : int;
  mutable jumps : int;
  mutable load_uses : int;
  mutable icc_waits : int;
}

let create () =
  {
    cycles = 0;
    instructions = 0;
    icache_misses = 0;
    dcache_reads = 0;
    dcache_read_misses = 0;
    dcache_writes = 0;
    dcache_write_misses = 0;
    branches = 0;
    taken_branches = 0;
    mults = 0;
    divs = 0;
    window_overflows = 0;
    window_underflows = 0;
    load_interlocks = 0;
    icc_hold_stalls = 0;
    shifts = 0;
    jumps = 0;
    load_uses = 0;
    icc_waits = 0;
  }

let reset t =
  t.cycles <- 0;
  t.instructions <- 0;
  t.icache_misses <- 0;
  t.dcache_reads <- 0;
  t.dcache_read_misses <- 0;
  t.dcache_writes <- 0;
  t.dcache_write_misses <- 0;
  t.branches <- 0;
  t.taken_branches <- 0;
  t.mults <- 0;
  t.divs <- 0;
  t.window_overflows <- 0;
  t.window_underflows <- 0;
  t.load_interlocks <- 0;
  t.icc_hold_stalls <- 0;
  t.shifts <- 0;
  t.jumps <- 0;
  t.load_uses <- 0;
  t.icc_waits <- 0

let copy t = { t with cycles = t.cycles }

let map2 f a b =
  {
    cycles = f a.cycles b.cycles;
    instructions = f a.instructions b.instructions;
    icache_misses = f a.icache_misses b.icache_misses;
    dcache_reads = f a.dcache_reads b.dcache_reads;
    dcache_read_misses = f a.dcache_read_misses b.dcache_read_misses;
    dcache_writes = f a.dcache_writes b.dcache_writes;
    dcache_write_misses = f a.dcache_write_misses b.dcache_write_misses;
    branches = f a.branches b.branches;
    taken_branches = f a.taken_branches b.taken_branches;
    mults = f a.mults b.mults;
    divs = f a.divs b.divs;
    window_overflows = f a.window_overflows b.window_overflows;
    window_underflows = f a.window_underflows b.window_underflows;
    load_interlocks = f a.load_interlocks b.load_interlocks;
    icc_hold_stalls = f a.icc_hold_stalls b.icc_hold_stalls;
    shifts = f a.shifts b.shifts;
    jumps = f a.jumps b.jumps;
    load_uses = f a.load_uses b.load_uses;
    icc_waits = f a.icc_waits b.icc_waits;
  }

let add = map2 ( + )
let sub = map2 ( - )

let scale_add cold ~warm ~reps =
  if reps < 1 then invalid_arg "Profiler.scale_add: reps must be >= 1";
  map2 (fun c w -> c + ((reps - 1) * w)) cold warm

let to_assoc t =
  [
    ("cycles", t.cycles);
    ("instructions", t.instructions);
    ("icache_misses", t.icache_misses);
    ("dcache_reads", t.dcache_reads);
    ("dcache_read_misses", t.dcache_read_misses);
    ("dcache_writes", t.dcache_writes);
    ("dcache_write_misses", t.dcache_write_misses);
    ("branches", t.branches);
    ("taken_branches", t.taken_branches);
    ("mults", t.mults);
    ("divs", t.divs);
    ("window_overflows", t.window_overflows);
    ("window_underflows", t.window_underflows);
    ("load_interlocks", t.load_interlocks);
    ("icc_hold_stalls", t.icc_hold_stalls);
    ("shifts", t.shifts);
    ("jumps", t.jumps);
    ("load_uses", t.load_uses);
    ("icc_waits", t.icc_waits);
  ]

(* Packing: every counter as a zigzag LEB128 varint, in [to_assoc]
   order — a few bytes each instead of a word. *)
let pack b t =
  let rec varint z =
    if z < 0x80 then Buffer.add_char b (Char.chr z)
    else begin
      Buffer.add_char b (Char.chr (z land 0x7F lor 0x80));
      varint (z lsr 7)
    end
  in
  List.iter (fun (_, v) -> varint ((v lsl 1) lxor (v asr 62))) (to_assoc t)

let unpack s ~pos =
  let pos = ref pos in
  let next () =
    let rec go acc shift =
      let c = Char.code s.[!pos] in
      incr pos;
      let acc = acc lor ((c land 0x7F) lsl shift) in
      if c < 0x80 then acc else go acc (shift + 7)
    in
    let z = go 0 0 in
    (z lsr 1) lxor -(z land 1)
  in
  (* one binding per field: record fields are evaluated in no fixed
     order *)
  let cycles = next () in
  let instructions = next () in
  let icache_misses = next () in
  let dcache_reads = next () in
  let dcache_read_misses = next () in
  let dcache_writes = next () in
  let dcache_write_misses = next () in
  let branches = next () in
  let taken_branches = next () in
  let mults = next () in
  let divs = next () in
  let window_overflows = next () in
  let window_underflows = next () in
  let load_interlocks = next () in
  let icc_hold_stalls = next () in
  let shifts = next () in
  let jumps = next () in
  let load_uses = next () in
  let icc_waits = next () in
  {
    cycles;
    instructions;
    icache_misses;
    dcache_reads;
    dcache_read_misses;
    dcache_writes;
    dcache_write_misses;
    branches;
    taken_branches;
    mults;
    divs;
    window_overflows;
    window_underflows;
    load_interlocks;
    icc_hold_stalls;
    shifts;
    jumps;
    load_uses;
    icc_waits;
  }

let to_json t =
  Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) (to_assoc t))

(* Structural sanity of a profile.  Hits are derived (hits = accesses -
   misses), so "hits + misses = accesses" holds exactly when misses do
   not exceed accesses; stalls and retirements cannot outnumber elapsed
   cycles; a stall fires only on an event that can cost it. *)
let invariants t =
  [
    ("counters non-negative", List.for_all (fun (_, v) -> v >= 0) (to_assoc t));
    ("dcache read misses <= reads", t.dcache_read_misses <= t.dcache_reads);
    ("dcache write misses <= writes", t.dcache_write_misses <= t.dcache_writes);
    ("icache misses <= instructions", t.icache_misses <= t.instructions);
    ("instructions <= cycles", t.instructions <= t.cycles);
    ("taken branches <= branches", t.taken_branches <= t.branches);
    ( "stall classes fit in cycles",
      t.load_interlocks + t.icc_hold_stalls <= t.cycles );
    ("load interlocks <= load uses", t.load_interlocks <= t.load_uses);
    ("icc hold stalls <= icc waits", t.icc_hold_stalls <= t.icc_waits);
  ]

let check t =
  match List.filter (fun (_, ok) -> not ok) (invariants t) with
  | [] -> Ok ()
  | broken -> Error (String.concat "; " (List.map fst broken))

let pp ppf t =
  Fmt.pf ppf
    "@[<v>cycles              %d@,\
     instructions        %d (CPI %.3f)@,\
     icache misses       %d@,\
     dcache reads/misses %d/%d@,\
     dcache writes/misses %d/%d@,\
     branches/taken      %d/%d@,\
     mults/divs          %d/%d@,\
     window ovf/unf      %d/%d@,\
     load interlocks     %d@,\
     icc hold stalls     %d@]"
    t.cycles t.instructions
    (if t.instructions = 0 then 0.0
     else float_of_int t.cycles /. float_of_int t.instructions)
    t.icache_misses t.dcache_reads t.dcache_read_misses t.dcache_writes
    t.dcache_write_misses t.branches t.taken_branches t.mults t.divs
    t.window_overflows t.window_underflows t.load_interlocks t.icc_hold_stalls

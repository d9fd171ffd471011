(* Program-phase detection over windowed profiler deltas.

   The detector splits one cold execution of the application on a
   fixed reference configuration into windows of [window] retired
   instructions, as a recording marks them ({!Recording}).  Each
   window yields a small feature vector
   (instruction mix plus cache behavior); a phase boundary opens where
   a full window's features diverge from the running aggregate of the
   current phase by more than [threshold] (L1 distance).  Everything
   is integer-counter arithmetic over a deterministic simulation, so
   detection is deterministic and independent of worker counts.

   Phases are architectural program behavior: the instruction stream
   is configuration-independent, so boundaries computed on the
   reference configuration are valid retired-instruction offsets for
   any configuration of the same ISA. *)

type options = {
  window : int;  (* retired instructions per observation window *)
  threshold : float;  (* L1 feature distance opening a new phase *)
  min_windows : int;  (* windows a phase must span before it can close *)
  max_phases : int;
}

let default_options =
  { window = 4096; threshold = 0.35; min_windows = 4; max_phases = 8 }

type phase = {
  start_insn : int;
  end_insn : int;
  profile : Profiler.t;  (* cold-execution delta over this span *)
}

type t = { options : options; total_insns : int; phases : phase list }

(* Feature vector of a profile delta: fractions in [0, 1], so the L1
   distance is scale-free and windows of different sizes compare. *)
let features (p : Profiler.t) =
  let insns = float_of_int (max 1 p.Profiler.instructions) in
  let frac n = float_of_int n /. insns in
  [|
    frac p.Profiler.dcache_reads;
    frac p.Profiler.dcache_writes;
    frac p.Profiler.branches;
    frac (p.Profiler.mults + p.Profiler.divs);
    frac p.Profiler.icache_misses;
    (let reads = max 1 p.Profiler.dcache_reads in
     float_of_int p.Profiler.dcache_read_misses /. float_of_int reads);
  |]

let distance a b =
  let d = ref 0.0 in
  Array.iteri (fun i x -> d := !d +. abs_float (x -. b.(i))) a;
  !d

let check options =
  if options.window < 1 then invalid_arg "Phase.detect: window must be >= 1";
  if options.min_windows < 1 then
    invalid_arg "Phase.detect: min_windows must be >= 1";
  if options.max_phases < 1 then
    invalid_arg "Phase.detect: max_phases must be >= 1"

let split options windows =
  check options;
  let closed = ref [] in
  let nclosed = ref 0 in
  (* open-phase state: start offset, the sum of its windows, and how
     many full windows it holds *)
  let phase_start = ref 0 in
  let phase = ref (Profiler.create ()) in
  let phase_windows = ref 0 in
  let wstart = ref 0 in
  List.iter
    (fun (w : Profiler.t) ->
      let retired = w.Profiler.instructions in
      (* a partial (final) window never opens a phase: its features are
         computed over too few instructions to be comparable *)
      let split =
        retired = options.window
        && !phase_windows >= options.min_windows
        && !nclosed + 2 <= options.max_phases
        && distance (features w) (features !phase) > options.threshold
      in
      if split then begin
        closed :=
          { start_insn = !phase_start; end_insn = !wstart; profile = !phase }
          :: !closed;
        incr nclosed;
        phase_start := !wstart;
        phase := w;
        phase_windows := 1
      end
      else begin
        phase := Profiler.add !phase w;
        incr phase_windows
      end;
      wstart := !wstart + retired)
    windows;
  let final =
    { start_insn = !phase_start; end_insn = !wstart; profile = !phase }
  in
  { options; total_insns = !wstart; phases = List.rev (final :: !closed) }

let detect ?(options = default_options) ?shift_stall ?mem_size config prog =
  check options;
  let _, recording =
    Recording.capture ~window:options.window (fun () ->
        Machine.run ?mem_size ?shift_stall config prog)
  in
  let icache, dcache = Recording.own recording in
  split options
    (Recording.segments recording ~icache ~dcache ~epoch:0
       ~boundaries:(Recording.window_starts recording ~window:options.window))

let count t = List.length t.phases

(* Interior boundaries only: the retired-instruction offsets at which a
   phased execution must switch (excludes 0 and the total). *)
let boundaries t = List.map (fun p -> p.start_insn) (List.tl t.phases)

let digest t =
  let b = Buffer.create 64 in
  Buffer.add_string b
    (Printf.sprintf "w=%d;t=%.6f;m=%d;p=%d;n=%d;" t.options.window
       t.options.threshold t.options.min_windows t.options.max_phases
       t.total_insns);
  List.iter (fun p -> Buffer.add_string b (Printf.sprintf "%d," p.start_insn))
    t.phases;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Coarse behavioral class of a phase, for reporting. *)
let dominant (p : Profiler.t) =
  let insns = float_of_int (max 1 p.Profiler.instructions) in
  let frac n = float_of_int n /. insns in
  let miss_rate =
    float_of_int p.Profiler.dcache_read_misses
    /. float_of_int (max 1 p.Profiler.dcache_reads)
  in
  (* Thresholds are calibrated for the register-allocating minic
     codegen, where even tight array loops retire only a few memory
     accesses per ten instructions. *)
  if miss_rate > 0.25 && frac p.Profiler.dcache_reads > 0.03 then "memory"
  else if frac (p.Profiler.mults + p.Profiler.divs) > 0.02 then "arith"
  else if frac (p.Profiler.dcache_reads + p.Profiler.dcache_writes) > 0.12
  then "data"
  else if frac p.Profiler.branches > 0.12 then "control"
  else "compute"

let cpi (p : Profiler.t) =
  float_of_int p.Profiler.cycles /. float_of_int (max 1 p.Profiler.instructions)

let pp ppf t =
  Fmt.pf ppf "@[<v>%d phase%s over %d instructions@," (count t)
    (if count t = 1 then "" else "s")
    t.total_insns;
  List.iteri
    (fun i p ->
      Fmt.pf ppf "  phase %d: insns [%d, %d)  %-7s  CPI %.3f@," (i + 1)
        p.start_insn p.end_insn (dominant p.profile) (cpi p.profile))
    t.phases;
  Fmt.pf ppf "@]"

(* The LEON2 reference target: the paper's own soft core, packaged as
   a {!Target.S} instance.  No interface file on purpose — the type
   equalities ([config = Arch.Config.t], [var = Arch.Param.var]) must
   stay visible so {!Leon2.S}'s results are plain {!Arch} values to
   every client (reports, the energy model, the CLIs). *)

type config = Arch.Config.t
type group = Arch.Param.group

type var = Arch.Param.var = {
  index : int;
  group : group;
  label : string;
  apply : config -> config;
}

let name = "leon2"
let description = "LEON2 SPARC V8 soft core (the paper's platform)"
let base = Arch.Config.base
let equal = Arch.Config.equal
let validate = Arch.Config.validate
let is_valid = Arch.Config.is_valid
let pp = Arch.Config.pp
let to_string = Arch.Codec.to_string
let of_string = Arch.Codec.of_string
let digest = Arch.Codec.digest
let vars = Arch.Param.all
let var_count = Arch.Param.count
let var = Arch.Param.var
let groups = Arch.Param.groups
let group_members = Arch.Param.group_members
let group_to_string = Arch.Param.group_to_string
let apply_all = Arch.Param.apply_all
let quick_dims = Arch.Param.dcache_size_dims

(* Reference configuration against which a variable's marginal cost is
   taken: base, except for replacement policies, which are structurally
   invalid on the 1-way base cache and referenced to a plain 2-way
   configuration (the x10<=x1 couplings make the solver pick them only
   together with added ways). *)
let reference_config (var : var) =
  let two_way_icache c =
    { c with Arch.Config.icache = { c.Arch.Config.icache with ways = 2 } }
  in
  let two_way_dcache c =
    { c with Arch.Config.dcache = { c.Arch.Config.dcache with ways = 2 } }
  in
  match var.group with
  | Arch.Param.Icache_repl -> two_way_icache Arch.Config.base
  | Arch.Param.Dcache_repl -> two_way_dcache Arch.Config.base
  | _ -> Arch.Config.base

(* The paper's Section 4 couplings: LRR requires 2-way associativity,
   LRU requires multi-way. *)
let couplings =
  [
    (10, [ 1 ]);             (* icache LRR needs 2 ways *)
    (11, [ 1; 2; 3 ]);       (* icache LRU needs multiway *)
    (21, [ 12 ]);            (* dcache LRR *)
    (22, [ 12; 13; 14 ]);    (* dcache LRU *)
  ]

(* The paper's nonlinear cache terms: per cache, the ways factor
   (1 + x1 + 2 x2 + 3 x3 on top of the implicit single base way) times
   the per-way size deltas. *)
let products =
  [
    ([ (1, 1.0); (2, 2.0); (3, 3.0) ], [ 4; 5; 6; 7; 8 ]);
    ([ (12, 1.0); (13, 2.0); (14, 3.0) ], [ 15; 16; 17; 18; 19 ]);
  ]

let resources = Synth.Estimate.config
let feasible = Synth.Estimate.feasible
let device_luts = Synth.Device.luts
let device_brams = Synth.Device.brams

let pick rng xs = List.nth xs (Sim.Rng.int rng (List.length xs))

let random_cache rng =
  let ways = pick rng Arch.Config.valid_ways in
  let way_kb = pick rng [ 1; 2; 4; 8; 16; 32 ] in
  let line_words = pick rng Arch.Config.valid_line_words in
  let replacement =
    match ways with
    | 1 -> Arch.Config.Random
    | 2 -> pick rng [ Arch.Config.Random; Arch.Config.Lrr; Arch.Config.Lru ]
    | _ -> pick rng [ Arch.Config.Random; Arch.Config.Lru ]
  in
  { Arch.Config.ways; way_kb; line_words; replacement }

let random_config rng =
  let bool () = Sim.Rng.int rng 2 = 1 in
  {
    Arch.Config.icache = random_cache rng;
    dcache = random_cache rng;
    dcache_fast_read = bool ();
    dcache_fast_write = bool ();
    iu =
      {
        Arch.Config.fast_jump = bool ();
        icc_hold = bool ();
        fast_decode = bool ();
        load_delay = 1 + Sim.Rng.int rng 2;
        reg_windows = pick rng Arch.Config.valid_reg_windows;
        divider = pick rng [ Arch.Config.Div_radix2; Arch.Config.Div_none ];
        multiplier =
          pick rng
            [
              Arch.Config.Mul_none; Arch.Config.Mul_iterative;
              Arch.Config.Mul_16x16; Arch.Config.Mul_16x16_pipe;
              Arch.Config.Mul_32x8; Arch.Config.Mul_32x16; Arch.Config.Mul_32x32;
            ];
      };
    infer_mult_div = bool ();
  }

(* All alternative values for one parameter group, as configuration
   transformers relative to the current configuration; "revert to base"
   comes first. *)
let group_options (g : group) =
  let members = Arch.Param.group_members g in
  let to_base (c : Arch.Config.t) =
    let b = Arch.Config.base in
    match g with
    | Arch.Param.Icache_ways ->
        { c with icache = { c.icache with ways = b.icache.ways } }
    | Arch.Param.Icache_way_kb ->
        { c with icache = { c.icache with way_kb = b.icache.way_kb } }
    | Arch.Param.Icache_line ->
        { c with icache = { c.icache with line_words = b.icache.line_words } }
    | Arch.Param.Icache_repl ->
        { c with icache = { c.icache with replacement = b.icache.replacement } }
    | Arch.Param.Dcache_ways ->
        { c with dcache = { c.dcache with ways = b.dcache.ways } }
    | Arch.Param.Dcache_way_kb ->
        { c with dcache = { c.dcache with way_kb = b.dcache.way_kb } }
    | Arch.Param.Dcache_line ->
        { c with dcache = { c.dcache with line_words = b.dcache.line_words } }
    | Arch.Param.Dcache_repl ->
        { c with dcache = { c.dcache with replacement = b.dcache.replacement } }
    | Arch.Param.Fast_read -> { c with dcache_fast_read = b.dcache_fast_read }
    | Arch.Param.Fast_write -> { c with dcache_fast_write = b.dcache_fast_write }
    | Arch.Param.Fast_jump ->
        { c with iu = { c.iu with fast_jump = b.iu.fast_jump } }
    | Arch.Param.Icc_hold -> { c with iu = { c.iu with icc_hold = b.iu.icc_hold } }
    | Arch.Param.Fast_decode ->
        { c with iu = { c.iu with fast_decode = b.iu.fast_decode } }
    | Arch.Param.Load_delay ->
        { c with iu = { c.iu with load_delay = b.iu.load_delay } }
    | Arch.Param.Reg_windows ->
        { c with iu = { c.iu with reg_windows = b.iu.reg_windows } }
    | Arch.Param.Divider -> { c with iu = { c.iu with divider = b.iu.divider } }
    | Arch.Param.Multiplier ->
        { c with iu = { c.iu with multiplier = b.iu.multiplier } }
    | Arch.Param.Infer_mult_div -> { c with infer_mult_div = b.infer_mult_div }
  in
  to_base :: List.map (fun v -> v.Arch.Param.apply) members

(* Is [candidate] provably runtime-identical to [current] by a static
   argument over the application's features?  Three such arguments:

   - the whole code segment fits a single icache way of both
     configurations (contiguous code, so no conflicts either): with
     identical line size the cold-miss sequence is identical and there
     are no capacity or conflict misses to remove, so any icache
     geometry/replacement change between the two is invisible;
   - the binary contains no multiply instruction, so the multiplier
     variant is invisible;
   - likewise for the divider. *)
let statically_equivalent ft (current : Arch.Config.t)
    (candidate : Arch.Config.t) =
  let icache_only =
    Arch.Config.equal { candidate with icache = current.icache } current
  in
  let resident (c : Arch.Config.t) =
    c.icache.way_kb >= Apps.Features.code_resident_kb ft
  in
  (icache_only
  && candidate.icache.line_words = current.icache.line_words
  && resident candidate && resident current)
  || Arch.Config.equal
       { candidate with iu = { candidate.iu with multiplier = current.iu.multiplier } }
       current
     && Apps.Features.mul_free ft
  || Arch.Config.equal
       { candidate with iu = { candidate.iu with divider = current.iu.divider } }
       current
     && Apps.Features.div_free ft

let changed_params (config : Arch.Config.t) =
  let b = Arch.Config.base in
  let add acc name f v = if f then (name, v) :: acc else acc in
  let cache_diff which (c : Arch.Config.cache) (bc : Arch.Config.cache) acc =
    let acc =
      add acc (which ^ "sets") (c.ways <> bc.ways) (string_of_int c.ways)
    in
    let acc =
      add acc (which ^ "setsz") (c.way_kb <> bc.way_kb) (string_of_int c.way_kb)
    in
    let acc =
      add acc (which ^ "linesz")
        (c.line_words <> bc.line_words)
        (string_of_int c.line_words)
    in
    add acc (which ^ "replace")
      (c.replacement <> bc.replacement)
      (Arch.Config.replacement_to_string c.replacement)
  in
  []
  |> cache_diff "icach" config.icache b.icache
  |> cache_diff "dcach" config.dcache b.dcache
  |> (fun acc ->
       add acc "fastread" (config.dcache_fast_read <> b.dcache_fast_read)
         (if config.dcache_fast_read then "on" else "off"))
  |> (fun acc ->
       add acc "fastwrite" (config.dcache_fast_write <> b.dcache_fast_write)
         (if config.dcache_fast_write then "on" else "off"))
  |> (fun acc ->
       add acc "fastjump" (config.iu.fast_jump <> b.iu.fast_jump)
         (if config.iu.fast_jump then "on" else "off"))
  |> (fun acc ->
       add acc "icchold" (config.iu.icc_hold <> b.iu.icc_hold)
         (if config.iu.icc_hold then "on" else "off"))
  |> (fun acc ->
       add acc "fastdecode" (config.iu.fast_decode <> b.iu.fast_decode)
         (if config.iu.fast_decode then "on" else "off"))
  |> (fun acc ->
       add acc "loaddelay" (config.iu.load_delay <> b.iu.load_delay)
         (string_of_int config.iu.load_delay))
  |> (fun acc ->
       add acc "registers" (config.iu.reg_windows <> b.iu.reg_windows)
         (string_of_int config.iu.reg_windows))
  |> (fun acc ->
       add acc "divider" (config.iu.divider <> b.iu.divider)
         (Arch.Config.divider_to_string config.iu.divider))
  |> (fun acc ->
       add acc "multiplier" (config.iu.multiplier <> b.iu.multiplier)
         (Arch.Config.multiplier_to_string config.iu.multiplier))
  |> (fun acc ->
       add acc "infermuldiv" (config.infer_mult_div <> b.infer_mult_div)
         (string_of_bool config.infer_mult_div))
  |> List.rev

let sweep_configs = Arch.Space.dcache_geometry ()

let describe_sweep_point (c : Arch.Config.t) =
  Printf.sprintf "%dx%dKB" c.Arch.Config.dcache.ways c.Arch.Config.dcache.way_kb

(* Runtime reconfiguration model, in Al-Wattar-style region framing:
   the tunable parameter groups live in three floor-planned regions
   (icache, dcache, integer unit); switching one group's value
   reprograms that group's slice of its region at a fixed cycle price.
   The cache regions are larger bitstreams (block RAM + tag logic)
   than the IU's mux-dominated slices.  The register-window file holds
   live architectural state, so it is static — a schedule shares one
   window-count decision across all phases.  LEON2 models partial
   reconfiguration: a region (and its block RAM contents, i.e. cache
   state) not touched by a switch stays intact. *)
let reconfig_regions =
  [
    ( "icache",
      [
        Arch.Param.Icache_ways; Arch.Param.Icache_way_kb;
        Arch.Param.Icache_line; Arch.Param.Icache_repl;
      ] );
    ( "dcache",
      [
        Arch.Param.Dcache_ways; Arch.Param.Dcache_way_kb;
        Arch.Param.Dcache_line; Arch.Param.Dcache_repl;
        Arch.Param.Fast_read; Arch.Param.Fast_write;
      ] );
    ( "iu",
      [
        Arch.Param.Fast_jump; Arch.Param.Icc_hold; Arch.Param.Fast_decode;
        Arch.Param.Load_delay; Arch.Param.Divider; Arch.Param.Multiplier;
        Arch.Param.Infer_mult_div;
      ] );
  ]

let static_groups = [ Arch.Param.Reg_windows ]

let group_switch_cycles (g : group) =
  let cache = 6_000 and iu = 2_500 in
  match g with
  | Arch.Param.Icache_ways | Arch.Param.Icache_way_kb | Arch.Param.Icache_line
  | Arch.Param.Icache_repl | Arch.Param.Dcache_ways | Arch.Param.Dcache_way_kb
  | Arch.Param.Dcache_line | Arch.Param.Dcache_repl | Arch.Param.Fast_read
  | Arch.Param.Fast_write ->
      cache
  | Arch.Param.Fast_jump | Arch.Param.Icc_hold | Arch.Param.Fast_decode
  | Arch.Param.Load_delay | Arch.Param.Divider | Arch.Param.Multiplier
  | Arch.Param.Infer_mult_div ->
      iu
  | Arch.Param.Reg_windows -> 0

let group_changed (a : Arch.Config.t) (b : Arch.Config.t) (g : group) =
  match g with
  | Arch.Param.Icache_ways -> a.icache.ways <> b.icache.ways
  | Arch.Param.Icache_way_kb -> a.icache.way_kb <> b.icache.way_kb
  | Arch.Param.Icache_line -> a.icache.line_words <> b.icache.line_words
  | Arch.Param.Icache_repl -> a.icache.replacement <> b.icache.replacement
  | Arch.Param.Dcache_ways -> a.dcache.ways <> b.dcache.ways
  | Arch.Param.Dcache_way_kb -> a.dcache.way_kb <> b.dcache.way_kb
  | Arch.Param.Dcache_line -> a.dcache.line_words <> b.dcache.line_words
  | Arch.Param.Dcache_repl -> a.dcache.replacement <> b.dcache.replacement
  | Arch.Param.Fast_read -> a.dcache_fast_read <> b.dcache_fast_read
  | Arch.Param.Fast_write -> a.dcache_fast_write <> b.dcache_fast_write
  | Arch.Param.Fast_jump -> a.iu.fast_jump <> b.iu.fast_jump
  | Arch.Param.Icc_hold -> a.iu.icc_hold <> b.iu.icc_hold
  | Arch.Param.Fast_decode -> a.iu.fast_decode <> b.iu.fast_decode
  | Arch.Param.Load_delay -> a.iu.load_delay <> b.iu.load_delay
  | Arch.Param.Reg_windows -> a.iu.reg_windows <> b.iu.reg_windows
  | Arch.Param.Divider -> a.iu.divider <> b.iu.divider
  | Arch.Param.Multiplier -> a.iu.multiplier <> b.iu.multiplier
  | Arch.Param.Infer_mult_div -> a.infer_mult_div <> b.infer_mult_div

let switch_cycles a b =
  List.fold_left
    (fun acc g -> if group_changed a b g then acc + group_switch_cycles g else acc)
    0 Arch.Param.groups

let keep_caches_on_switch = true

let schedule_dims =
  [
    Arch.Param.Icache_way_kb; Arch.Param.Icache_line; Arch.Param.Dcache_way_kb;
    Arch.Param.Dcache_line;
  ]

(* LEON2 is the simulator's own core: its configurations run as they
   are, with a barrel shifter. *)
include Target.Simulated (struct
  type nonrec config = config

  let name = name
  let base = base
  let lower = Fun.id
  let shift_stall _ = 0
  let switch_cycles = switch_cycles
  let keep_caches_on_switch = keep_caches_on_switch
end)

(* The caches and every integer-unit option but the window count, fast
   read/write and mult/div inference leave the executed stream alone,
   so the class is [base] at the configuration's window count.  Window
   traps depend only on the program and the count, so once [base] runs
   trap-free at some count, every configuration at or above it executes
   the same stream there. *)
let representative ~run (c : config) =
  let at n = { base with iu = { base.iu with reg_windows = n } } in
  let trap_free n =
    let p = run (at n) in
    p.Sim.Profiler.window_overflows = 0 && p.Sim.Profiler.window_underflows = 0
  in
  match
    List.find_opt trap_free
      (List.filter (fun n -> n < c.iu.reg_windows) Arch.Config.valid_reg_windows)
  with
  | Some n -> at n
  | None -> at c.iu.reg_windows

let probe =
  {
    Target.target = name;
    digest;
    describe = to_string;
    is_valid;
    resources;
    device_luts;
    device_brams;
    simulate;
    representative;
    caches;
    price;
    static_bounds;
  }

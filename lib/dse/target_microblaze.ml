(* A MicroBlaze-like soft core as a second {!Target.S} instance.

   The backend reuses the cycle-accurate SPARC simulator by *lowering*
   its configuration onto the LEON2 simulation knobs that model the
   same microarchitectural effects:

   - the direct-mapped icache lowers to a 1-way LEON2 icache of the
     same size and line length (replacement is then irrelevant);
   - the dcache maps structurally (same ways/size/line/replacement
     trade space, minus LRR);
   - a missing barrel shifter becomes a per-shift stall
     ({!Sim.Machine.run}'s [shift_stall]) — MicroBlaze without the
     optional barrel shifter iterates one bit per cycle;
   - the three-level multiplier and the optional divider map onto the
     nearest LEON2 functional-unit variants;
   - the SPARC-specific options this core does not offer (register
     windows, fast jump/decode, ICC hold, load delay, cache bypasses)
     are pinned to fixed values, so they never vary between two
     MicroBlaze configurations and cancel out of every delta.

   Resources come from the independent {!Synth.Mb_costs} /
   {!Synth.Mb_estimate} model against a much smaller device (9,600
   LUTs / 72 BRAMs), which is what makes the BINLP resource
   constraints bind in interesting places on this target. *)

type config = Arch.Mb_config.t
type group = Arch.Mb_param.group

type var = Arch.Mb_param.var = {
  index : int;
  group : group;
  label : string;
  apply : config -> config;
}

let name = "microblaze"
let description = "MicroBlaze-like RISC soft core (barrel shifter, mul/div options, direct-mapped icache)"
let base = Arch.Mb_config.base
let equal = Arch.Mb_config.equal
let validate = Arch.Mb_config.validate
let is_valid = Arch.Mb_config.is_valid
let pp = Arch.Mb_config.pp
let to_string = Arch.Mb_codec.to_string
let of_string = Arch.Mb_codec.of_string
let digest = Arch.Mb_codec.digest
let vars = Arch.Mb_param.all
let var_count = Arch.Mb_param.count
let var = Arch.Mb_param.var
let groups = Arch.Mb_param.groups
let group_members = Arch.Mb_param.group_members
let group_to_string = Arch.Mb_param.group_to_string
let apply_all = Arch.Mb_param.apply_all
let quick_dims = Arch.Mb_param.dcache_size_dims

(* LRU is structurally invalid on the 1-way base dcache; its marginal
   cost is measured on a plain 2-way configuration (the x13 <= x6 + x7
   coupling makes the solver pick it only together with added ways) —
   the exact analogue of LEON2's replacement references. *)
let reference_config (var : var) =
  match var.group with
  | Arch.Mb_param.Dcache_repl ->
      {
        base with
        Arch.Mb_config.dcache = { base.Arch.Mb_config.dcache with ways = 2 };
      }
  | _ -> base

(* This core's only validity coupling: LRU (x13) needs multi-way
   associativity (x6 or x7).  No LRR exists at all. *)
let couplings = [ (13, [ 6; 7 ]) ]

(* The dcache is the only set-associative cache, so it contributes the
   only nonlinear resource term: ways factor (1 + x6 + 3 x7) times the
   per-way size deltas x8..x11.  The direct-mapped icache's size deltas
   stay linear. *)
let products = [ ([ (6, 1.0); (7, 3.0) ], [ 8; 9; 10; 11 ]) ]

let resources = Synth.Mb_estimate.config
let feasible = Synth.Mb_estimate.feasible
let device_luts = Synth.Mb_costs.device_luts
let device_brams = Synth.Mb_costs.device_brams

let pick rng xs = List.nth xs (Sim.Rng.int rng (List.length xs))

let random_config rng =
  let bool () = Sim.Rng.int rng 2 = 1 in
  let icache =
    {
      Arch.Mb_config.way_kb = pick rng Arch.Mb_config.valid_way_kbs;
      line_words = pick rng Arch.Mb_config.valid_line_words;
    }
  in
  let ways = pick rng Arch.Mb_config.valid_dcache_ways in
  let replacement =
    match ways with
    | 1 -> Arch.Config.Random
    | _ -> pick rng [ Arch.Config.Random; Arch.Config.Lru ]
  in
  let dcache =
    {
      Arch.Config.ways;
      way_kb = pick rng Arch.Mb_config.valid_way_kbs;
      line_words = pick rng Arch.Mb_config.valid_line_words;
      replacement;
    }
  in
  {
    Arch.Mb_config.icache;
    dcache;
    barrel_shifter = bool ();
    multiplier =
      pick rng
        [ Arch.Mb_config.Mb_mul_none; Arch.Mb_config.Mb_mul32;
          Arch.Mb_config.Mb_mul64 ];
    divider = bool ();
  }

(* All alternative values for one parameter group, as configuration
   transformers relative to the current configuration; "revert to base"
   comes first. *)
let group_options (g : group) =
  let members = Arch.Mb_param.group_members g in
  let to_base (c : Arch.Mb_config.t) =
    let b = base in
    match g with
    | Arch.Mb_param.Icache_way_kb ->
        { c with icache = { c.icache with way_kb = b.icache.way_kb } }
    | Arch.Mb_param.Icache_line ->
        { c with icache = { c.icache with line_words = b.icache.line_words } }
    | Arch.Mb_param.Dcache_ways ->
        { c with dcache = { c.dcache with ways = b.dcache.ways } }
    | Arch.Mb_param.Dcache_way_kb ->
        { c with dcache = { c.dcache with way_kb = b.dcache.way_kb } }
    | Arch.Mb_param.Dcache_line ->
        { c with dcache = { c.dcache with line_words = b.dcache.line_words } }
    | Arch.Mb_param.Dcache_repl ->
        { c with dcache = { c.dcache with replacement = b.dcache.replacement } }
    | Arch.Mb_param.Barrel_shifter -> { c with barrel_shifter = b.barrel_shifter }
    | Arch.Mb_param.Multiplier -> { c with multiplier = b.multiplier }
    | Arch.Mb_param.Divider -> { c with divider = b.divider }
  in
  to_base :: List.map (fun v -> v.Arch.Mb_param.apply) members

(* The same three static invisibility arguments as on LEON2: a
   code-resident icache makes icache geometry changes invisible, and
   multiplier/divider variants are invisible to programs that never
   multiply/divide. *)
let statically_equivalent ft (current : Arch.Mb_config.t)
    (candidate : Arch.Mb_config.t) =
  let icache_only =
    Arch.Mb_config.equal { candidate with icache = current.icache } current
  in
  let resident (c : Arch.Mb_config.t) =
    c.icache.way_kb >= Apps.Features.code_resident_kb ft
  in
  (icache_only
  && candidate.icache.line_words = current.icache.line_words
  && resident candidate && resident current)
  || Arch.Mb_config.equal
       { candidate with multiplier = current.multiplier }
       current
     && Apps.Features.mul_free ft
  || Arch.Mb_config.equal { candidate with divider = current.divider } current
     && Apps.Features.div_free ft

let changed_params (config : Arch.Mb_config.t) =
  let b = base in
  let add acc name f v = if f then (name, v) :: acc else acc in
  []
  |> (fun acc ->
       add acc "icachesz"
         (config.icache.way_kb <> b.icache.way_kb)
         (string_of_int config.icache.way_kb))
  |> (fun acc ->
       add acc "icachelinesz"
         (config.icache.line_words <> b.icache.line_words)
         (string_of_int config.icache.line_words))
  |> (fun acc ->
       add acc "dcachesets"
         (config.dcache.ways <> b.dcache.ways)
         (string_of_int config.dcache.ways))
  |> (fun acc ->
       add acc "dcachesetsz"
         (config.dcache.way_kb <> b.dcache.way_kb)
         (string_of_int config.dcache.way_kb))
  |> (fun acc ->
       add acc "dcachelinesz"
         (config.dcache.line_words <> b.dcache.line_words)
         (string_of_int config.dcache.line_words))
  |> (fun acc ->
       add acc "dcachereplace"
         (config.dcache.replacement <> b.dcache.replacement)
         (Arch.Config.replacement_to_string config.dcache.replacement))
  |> (fun acc ->
       add acc "barrelshifter"
         (config.barrel_shifter <> b.barrel_shifter)
         (if config.barrel_shifter then "on" else "off"))
  |> (fun acc ->
       add acc "multiplier"
         (config.multiplier <> b.multiplier)
         (Arch.Mb_config.multiplier_to_string config.multiplier))
  |> (fun acc ->
       add acc "divider" (config.divider <> b.divider)
         (if config.divider then "on" else "off"))
  |> List.rev

(* The scaled-down exhaustive geometry sweep: all dcache ways x
   way-size points (ways-major, like the paper's Figure 2 rows). *)
let sweep_configs =
  List.concat_map
    (fun ways ->
      List.map
        (fun way_kb ->
          { base with Arch.Mb_config.dcache = { base.Arch.Mb_config.dcache with ways; way_kb } })
        Arch.Mb_config.valid_way_kbs)
    Arch.Mb_config.valid_dcache_ways

let describe_sweep_point (c : Arch.Mb_config.t) =
  Printf.sprintf "%dx%dKB" c.Arch.Mb_config.dcache.ways
    c.Arch.Mb_config.dcache.way_kb

(* Lowering onto the simulator: the knobs this core does not offer are
   pinned, so they cancel out of every delta between two MicroBlaze
   configurations. *)
let lower (c : Arch.Mb_config.t) : Arch.Config.t =
  {
    Arch.Config.icache =
      {
        Arch.Config.ways = 1;
        way_kb = c.icache.way_kb;
        line_words = c.icache.line_words;
        replacement = Arch.Config.Random;
      };
    dcache = c.dcache;
    dcache_fast_read = false;
    dcache_fast_write = false;
    iu =
      {
        Arch.Config.fast_jump = true;
        icc_hold = false;
        fast_decode = true;
        load_delay = 1;
        reg_windows = 8;
        divider =
          (if c.divider then Arch.Config.Div_radix2 else Arch.Config.Div_none);
        multiplier =
          (match c.multiplier with
          | Arch.Mb_config.Mb_mul_none -> Arch.Config.Mul_none
          | Arch.Mb_config.Mb_mul32 -> Arch.Config.Mul_32x16
          | Arch.Mb_config.Mb_mul64 -> Arch.Config.Mul_32x32);
      };
    infer_mult_div = true;
  }

(* Without the optional barrel shifter, MicroBlaze shifts iterate —
   modeled as a flat per-shift stall. *)
let shift_stall (c : Arch.Mb_config.t) = if c.Arch.Mb_config.barrel_shifter then 0 else 8

(* Runtime reconfiguration model.  The same region framing as LEON2,
   but the much smaller device reconfigures whole functional blocks:
   slices are cheaper (less logic per group), and a switch does NOT
   preserve cache contents — reprogramming this device's block RAM
   columns flushes them, so every switch restarts the caches cold.
   That asymmetry (LEON2 keeps untouched regions warm, MicroBlaze
   flushes) is exactly the policy knob [keep_caches_on_switch]
   exposes.  No group is architecturally static on this core. *)
let reconfig_regions =
  [
    ("icache", [ Arch.Mb_param.Icache_way_kb; Arch.Mb_param.Icache_line ]);
    ( "dcache",
      [
        Arch.Mb_param.Dcache_ways; Arch.Mb_param.Dcache_way_kb;
        Arch.Mb_param.Dcache_line; Arch.Mb_param.Dcache_repl;
      ] );
    ( "alu",
      [
        Arch.Mb_param.Barrel_shifter; Arch.Mb_param.Multiplier;
        Arch.Mb_param.Divider;
      ] );
  ]

let static_groups = []

let group_switch_cycles (g : group) =
  match g with
  | Arch.Mb_param.Icache_way_kb | Arch.Mb_param.Icache_line
  | Arch.Mb_param.Dcache_ways | Arch.Mb_param.Dcache_way_kb
  | Arch.Mb_param.Dcache_line | Arch.Mb_param.Dcache_repl ->
      4_000
  | Arch.Mb_param.Barrel_shifter | Arch.Mb_param.Multiplier
  | Arch.Mb_param.Divider ->
      2_000

let group_changed (a : Arch.Mb_config.t) (b : Arch.Mb_config.t) (g : group) =
  match g with
  | Arch.Mb_param.Icache_way_kb -> a.icache.way_kb <> b.icache.way_kb
  | Arch.Mb_param.Icache_line -> a.icache.line_words <> b.icache.line_words
  | Arch.Mb_param.Dcache_ways -> a.dcache.ways <> b.dcache.ways
  | Arch.Mb_param.Dcache_way_kb -> a.dcache.way_kb <> b.dcache.way_kb
  | Arch.Mb_param.Dcache_line -> a.dcache.line_words <> b.dcache.line_words
  | Arch.Mb_param.Dcache_repl -> a.dcache.replacement <> b.dcache.replacement
  | Arch.Mb_param.Barrel_shifter -> a.barrel_shifter <> b.barrel_shifter
  | Arch.Mb_param.Multiplier -> a.multiplier <> b.multiplier
  | Arch.Mb_param.Divider -> a.divider <> b.divider

let switch_cycles a b =
  List.fold_left
    (fun acc g -> if group_changed a b g then acc + group_switch_cycles g else acc)
    0 Arch.Mb_param.groups

let keep_caches_on_switch = false

let schedule_dims =
  [
    Arch.Mb_param.Icache_way_kb; Arch.Mb_param.Icache_line;
    Arch.Mb_param.Dcache_way_kb; Arch.Mb_param.Dcache_line;
  ]

include Target.Simulated (struct
  type nonrec config = config

  let name = name
  let base = base
  let lower = lower
  let shift_stall = shift_stall
  let switch_cycles = switch_cycles
  let keep_caches_on_switch = keep_caches_on_switch
end)

(* The caches, barrel shifter, multiplier and divider leave the
   executed stream alone and the window count is pinned, so every
   configuration is of [base]'s class. *)
let representative ~run:_ (_ : config) = base

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

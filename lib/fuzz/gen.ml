module G = QCheck2.Gen
module Ast = Minic.Ast

let ( let* ) = G.( let* )

(* ------------------------------------------------------------------ *)
(* minic programs                                                      *)
(* ------------------------------------------------------------------ *)

type profile = Straightline | Branching | Looping | Callish | Mixed

let all_profiles = [ Straightline; Branching; Looping; Callish; Mixed ]

let profile_name = function
  | Straightline -> "straightline"
  | Branching -> "branching"
  | Looping -> "looping"
  | Callish -> "callish"
  | Mixed -> "mixed"

(* The generated vocabulary is fixed: four globals and a handful of
   locals.  Every program is safe by construction on ALL paths — array
   indices are masked to the array length, division and modulo only
   ever see a non-zero literal divisor, loops are counter loops whose
   counter is touched by nothing but the loop scaffolding, and every
   local is initialized before the random body runs.  A clean
   interpretation is therefore guaranteed, which is what lets the
   oracles treat any trap, divergence, or lint error as a genuine
   bug rather than a property of the input. *)

type env = {
  readable : string list;  (* variables expressions may mention *)
  assignable : string list;  (* variables statements may Set *)
  counters : string list;  (* loop counters not yet claimed *)
  funcs : (string * int) list;  (* callable helpers: name, arity *)
}

let literal =
  G.frequency
    [
      (5, G.int_range (-64) 64);
      (2, G.int_range (-10_000) 10_000);
      (1, G.oneofl [ 0x7FFFFFFF; -0x80000000; 0xFFFF; 255; 1 lsl 16 ]);
    ]

let var env = G.map (fun x -> Ast.Var x) (G.oneofl env.readable)

(* arr[(v|n) & mask] — in bounds whatever the operand's value is. *)
let masked_index env mask =
  let* operand =
    G.oneof [ var env; G.map (fun n -> Ast.Int n) (G.int_range 0 (4 * mask)) ]
  in
  G.return (Ast.Bin (Ast.And, operand, Ast.Int mask))

(* big[(x * stride + n) & 1023]: the 4 KB array is walked at strides
   of 16 bytes to just over 1 KB, so its references reach different
   lines of one cache class (lines whose addresses agree modulo 1 KB),
   which the two small arrays never do. *)
let strided_index env =
  let* operand =
    G.oneof [ var env; G.map (fun n -> Ast.Int n) (G.int_range 0 64) ]
  in
  let* stride = G.oneofl [ 4; 64; 256; 260 ] in
  let* offset = G.int_range 0 1023 in
  G.return
    (Ast.Bin
       ( Ast.And,
         Ast.Bin (Ast.Add, Ast.Bin (Ast.Mul, operand, Ast.Int stride), Ast.Int offset),
         Ast.Int 1023 ))

(* One of the three arrays, with an index in its bounds. *)
let element env =
  G.oneof
    [
      G.map (fun i -> ("arr", i)) (masked_index env 15);
      G.map (fun i -> ("buf", i)) (masked_index env 7);
      G.map (fun i -> ("big", i)) (strided_index env);
    ]

let array_read env =
  let* name, index = element env in
  G.return (Ast.Idx (name, index))

let leaf env =
  G.frequency
    [
      (3, G.map (fun n -> Ast.Int n) literal);
      (4, var env);
      (2, array_read env);
    ]

(* Every operator except Div and Mod is total (shift amounts are
   masked to 5 bits by the semantics, so huge shifts are fine). *)
let total_binop =
  G.oneofl
    [
      Ast.Add; Ast.Sub; Ast.Mul; Ast.And; Ast.Or; Ast.Xor; Ast.Shl; Ast.Shr;
      Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Ne;
    ]

let nonzero_literal =
  G.map (fun n -> if n >= 0 then n + 1 else n) (G.int_range (-500) 499)

let rec expr env depth =
  if depth <= 0 then leaf env
  else
    G.frequency
      [
        (2, leaf env);
        ( 5,
          let* op = total_binop in
          let* a = expr env (depth - 1) in
          let* b = expr env (depth - 1) in
          G.return (Ast.Bin (op, a, b)) );
        ( 1,
          (* Division and modulo only by a non-zero literal. *)
          let* op = G.oneofl [ Ast.Div; Ast.Mod ] in
          let* a = expr env (depth - 1) in
          let* d = nonzero_literal in
          G.return (Ast.Bin (op, a, Ast.Int d)) );
        ( 2,
          let* op = G.oneofl [ Ast.Neg; Ast.Not; Ast.Bitnot ] in
          let* a = expr env (depth - 1) in
          G.return (Ast.Un (op, a)) );
      ]

type weights = {
  w_assign : int;
  w_store : int;
  w_if : int;
  w_while : int;
  w_call : int;
}

let weights_of_profile = function
  | Straightline -> { w_assign = 6; w_store = 3; w_if = 0; w_while = 0; w_call = 0 }
  | Branching -> { w_assign = 3; w_store = 2; w_if = 4; w_while = 0; w_call = 1 }
  | Looping -> { w_assign = 3; w_store = 2; w_if = 1; w_while = 4; w_call = 0 }
  | Callish -> { w_assign = 2; w_store = 1; w_if = 1; w_while = 1; w_call = 4 }
  | Mixed -> { w_assign = 3; w_store = 2; w_if = 2; w_while = 2; w_call = 2 }

let assign_stmt env =
  let* x = G.oneofl env.assignable in
  let* e = expr env 3 in
  G.return [ Ast.Set (x, e) ]

let store_stmt env =
  let* name, index = element env in
  let* e = expr env 3 in
  G.return [ Ast.Set_idx (name, index, e) ]

let call_stmt env =
  match env.funcs with
  | [] -> assign_stmt env
  | funcs ->
      let* f, arity = G.oneofl funcs in
      let* args = G.list_size (G.return arity) (expr env 2) in
      let call = Ast.Call (f, args) in
      G.oneof
        [
          G.return [ Ast.Do call ];
          G.map (fun x -> [ Ast.Set (x, call) ]) (G.oneofl env.assignable);
        ]

(* A statement "slot" expands to one or two statements (a while loop
   carries its counter initialization with it). *)
let rec slot env ~depth w =
  G.frequency
    (List.filter
       (fun (n, _) -> n > 0)
       [
         (w.w_assign, assign_stmt env);
         (w.w_store, store_stmt env);
         ((if depth > 0 then w.w_if else 0), if_stmt env ~depth w);
         ( (if depth > 0 && env.counters <> [] then w.w_while else 0),
           while_stmt env ~depth w );
         ((if env.funcs <> [] then w.w_call else 0), call_stmt env);
       ])

and block env ~depth ~slots w =
  let* groups = G.list_size (G.return slots) (slot env ~depth w) in
  G.return (List.concat groups)

and if_stmt env ~depth w =
  let* cond = expr env 2 in
  let* nthen = G.int_range 1 3 in
  let* then_ = block env ~depth:(depth - 1) ~slots:nthen w in
  let* else_ =
    G.oneof
      [
        G.return [];
        (let* n = G.int_range 1 2 in
         block env ~depth:(depth - 1) ~slots:n w);
      ]
  in
  G.return [ Ast.If (cond, then_, else_) ]

and while_stmt env ~depth w =
  match env.counters with
  | [] -> assign_stmt env
  | k :: rest ->
      (* k = 0; while (k < bound) { body; k = k + 1; } — the body may
         read k but never assigns it, so the loop always terminates. *)
      let env' = { env with readable = k :: env.readable; counters = rest } in
      let* bound = G.int_range 1 8 in
      let* slots = G.int_range 1 2 in
      let* body = block env' ~depth:(depth - 1) ~slots w in
      G.return
        [
          Ast.Set (k, Ast.Int 0);
          Ast.While
            ( Ast.Bin (Ast.Lt, Ast.Var k, Ast.Int bound),
              body @ [ Ast.Set (k, Ast.Bin (Ast.Add, Ast.Var k, Ast.Int 1)) ] );
        ]

(* Helpers are straight-line-plus-if functions over their parameters,
   the globals, and a couple of locals; they never loop, never call,
   and end in an explicit return. *)
let helper name =
  let* nparams = G.int_range 1 3 in
  let params = List.init nparams (Printf.sprintf "p%d") in
  let locals = [ "d0"; "d1" ] in
  let env =
    {
      readable = params @ locals @ [ "g" ];
      assignable = locals @ [ "g" ];
      counters = [];
      funcs = [];
    }
  in
  let pre = { env with readable = params @ [ "g" ] } in
  let* init0 = expr pre 2 in
  let* init1 = expr pre 2 in
  let prologue = [ Ast.Set ("d0", init0); Ast.Set ("d1", init1) ] in
  let w = weights_of_profile Branching in
  let* nslots = G.int_range 1 3 in
  let* body = block env ~depth:1 ~slots:nslots w in
  let* ret = expr env 3 in
  G.return
    { Ast.name; params; locals; body = prologue @ (body @ [ Ast.Ret ret ]) }

let main_locals = [ "a"; "b"; "c"; "s" ]

let main_of ~funcs ~w =
  let env =
    {
      readable = main_locals @ [ "g" ];
      assignable = main_locals @ [ "g" ];
      counters = [ "k0"; "k1" ];
      funcs;
    }
  in
  (* The prologue initializes every non-counter local (counters are
     initialized by their loop scaffolding and visible only inside the
     loop), so no path reads an uninitialized variable. *)
  let pre = { env with readable = [ "g" ]; assignable = [] } in
  let* prologue =
    G.flatten_l
      (List.map
         (fun x ->
           let* e = expr pre 2 in
           G.return (Ast.Set (x, e)))
         main_locals)
  in
  let* nslots = G.int_range 3 8 in
  let* body = block env ~depth:2 ~slots:nslots w in
  (* Fold every observable into the result so divergences anywhere in
     the state surface as a wrong return value.  The chain is
     left-leaning, which keeps the expression-stack depth constant. *)
  let sum =
    List.fold_left
      (fun acc e -> Ast.Bin (Ast.Add, acc, e))
      (Ast.Var "a")
      [
        Ast.Var "b";
        Ast.Var "c";
        Ast.Var "s";
        Ast.Var "g";
        Ast.Idx ("arr", Ast.Bin (Ast.And, Ast.Var "a", Ast.Int 15));
        Ast.Idx ("buf", Ast.Bin (Ast.And, Ast.Var "b", Ast.Int 7));
        Ast.Idx ("big", Ast.Bin (Ast.And, Ast.Var "c", Ast.Int 1023));
      ]
  in
  let epilogue = [ Ast.Ret sum ] in
  G.return
    {
      Ast.name = "main";
      params = [];
      locals = main_locals @ [ "k0"; "k1" ];
      body = prologue @ body @ epilogue;
    }

let program_of_profile profile =
  let* g0 = G.int_range (-1000) 1000 in
  let* arr_init =
    G.array_size (G.return 16) (G.int_range (-10_000) 10_000)
  in
  let* buf_init = G.array_size (G.return 8) (G.int_range 0 255) in
  let globals =
    [
      Ast.Scalar ("g", g0);
      Ast.Array_init ("arr", Ast.Word, arr_init);
      Ast.Array_init ("buf", Ast.Byte, buf_init);
      Ast.Array ("big", Ast.Word, 1024);
    ]
  in
  let* nhelpers =
    match profile with
    | Callish -> G.int_range 1 2
    | Mixed | Branching -> G.int_range 0 1
    | Straightline | Looping -> G.return 0
  in
  let* helpers =
    G.flatten_l (List.init nhelpers (fun i -> helper (Printf.sprintf "f%d" i)))
  in
  let funcs =
    List.map (fun (f : Ast.func) -> (f.name, List.length f.params)) helpers
  in
  let w = weights_of_profile profile in
  let* main = main_of ~funcs ~w in
  G.return { Ast.globals; funcs = helpers @ [ main ] }

let program =
  let* profile =
    G.frequencyl
      [ (2, Straightline); (3, Branching); (3, Looping); (2, Callish); (4, Mixed) ]
  in
  program_of_profile profile

let print_program = Minic.Pretty.to_string

(* ------------------------------------------------------------------ *)
(* Architecture configurations                                         *)
(* ------------------------------------------------------------------ *)

let replacement ways =
  match ways with
  | 1 -> G.return Arch.Config.Random
  | 2 -> G.oneofl [ Arch.Config.Random; Arch.Config.Lrr; Arch.Config.Lru ]
  | _ -> G.oneofl [ Arch.Config.Random; Arch.Config.Lru ]

let cache =
  let* ways = G.oneofl Arch.Config.valid_ways in
  let* way_kb = G.oneofl Arch.Config.valid_way_kbs in
  let* line_words = G.oneofl Arch.Config.valid_line_words in
  let* replacement = replacement ways in
  G.return { Arch.Config.ways; way_kb; line_words; replacement }

let iu =
  let* fast_jump = G.bool in
  let* icc_hold = G.bool in
  let* fast_decode = G.bool in
  let* load_delay = G.oneofl [ 1; 2 ] in
  let* reg_windows = G.oneofl Arch.Config.valid_reg_windows in
  let* divider = G.oneofl [ Arch.Config.Div_radix2; Arch.Config.Div_none ] in
  let* multiplier =
    G.oneofl
      [
        Arch.Config.Mul_none; Arch.Config.Mul_iterative; Arch.Config.Mul_16x16;
        Arch.Config.Mul_16x16_pipe; Arch.Config.Mul_32x8; Arch.Config.Mul_32x16;
        Arch.Config.Mul_32x32;
      ]
  in
  G.return
    {
      Arch.Config.fast_jump; icc_hold; fast_decode; load_delay; reg_windows;
      divider; multiplier;
    }

let config =
  let* icache = cache in
  let* dcache = cache in
  let* dcache_fast_read = G.bool in
  let* dcache_fast_write = G.bool in
  let* iu = iu in
  let* infer_mult_div = G.bool in
  G.return
    {
      Arch.Config.icache; dcache; dcache_fast_read; dcache_fast_write; iu;
      infer_mult_div;
    }

let print_config = Arch.Codec.to_string

let mb_replacement ways =
  match ways with
  | 1 -> G.return Arch.Config.Random
  | _ -> G.oneofl [ Arch.Config.Random; Arch.Config.Lru ]

let mb_config =
  let* icache_kb = G.oneofl Arch.Mb_config.valid_way_kbs in
  let* icache_line = G.oneofl Arch.Mb_config.valid_line_words in
  let* ways = G.oneofl Arch.Mb_config.valid_dcache_ways in
  let* way_kb = G.oneofl Arch.Mb_config.valid_way_kbs in
  let* line_words = G.oneofl Arch.Mb_config.valid_line_words in
  let* replacement = mb_replacement ways in
  let* barrel_shifter = G.bool in
  let* multiplier =
    G.oneofl
      [ Arch.Mb_config.Mb_mul_none; Arch.Mb_config.Mb_mul32;
        Arch.Mb_config.Mb_mul64 ]
  in
  let* divider = G.bool in
  G.return
    {
      Arch.Mb_config.icache =
        { Arch.Mb_config.way_kb = icache_kb; line_words = icache_line };
      dcache = { Arch.Config.ways; way_kb; line_words; replacement };
      barrel_shifter;
      multiplier;
      divider;
    }

let print_mb_config = Arch.Mb_codec.to_string

(* ------------------------------------------------------------------ *)
(* Small SOS1 binary programs for the exact solver                     *)
(* ------------------------------------------------------------------ *)

(* Coefficients are halves of small integers: exactly representable,
   so solver-vs-brute-force objective comparison is a pure search
   question, not a floating-point one. *)
let half lo hi = G.map (fun n -> float_of_int n /. 2.0) (G.int_range lo hi)

let lin nvars =
  let* n = G.int_range 1 (min 3 nvars) in
  let* vars = G.list_size (G.return n) (G.int_range 0 (nvars - 1)) in
  let vars = List.sort_uniq compare vars in
  let* coeffs =
    G.flatten_l
      (List.map
         (fun v ->
           let* c = half (-6) 6 in
           G.return (v, c))
         vars)
  in
  let* const = half (-4) 4 in
  G.return { Optim.Binlp.coeffs; const }

let constr nvars =
  let* nterms = G.int_range 1 2 in
  let* terms =
    G.list_size (G.return nterms)
      (G.frequency
         [
           (3, G.map (fun l -> Optim.Binlp.Lin l) (lin nvars));
           ( 1,
             let* a = lin nvars in
             let* b = lin nvars in
             G.return (Optim.Binlp.Prod (a, b)) );
         ])
  in
  let* rel = G.oneofl [ Optim.Binlp.Le; Optim.Binlp.Ge ] in
  let* bound = half (-16) 24 in
  G.return { Optim.Binlp.terms; rel; bound }

let binlp_problem =
  let* nvars = G.int_range 1 6 in
  let* objective = G.array_size (G.return nvars) (half (-8) 8) in
  (* Up to two disjoint SOS1 groups over a prefix of the variables;
     the rest are free binaries. *)
  let* s1 = G.int_range 0 (min 3 nvars) in
  let* s2 = G.int_range 0 (min 3 (nvars - s1)) in
  let groups =
    List.filter
      (fun g -> g <> [])
      [ List.init s1 Fun.id; List.init s2 (fun i -> s1 + i) ]
  in
  let* ncons = G.int_range 0 3 in
  let* constraints = G.list_size (G.return ncons) (constr nvars) in
  G.return { Optim.Binlp.nvars; objective; groups; constraints }

let print_lin (l : Optim.Binlp.lin) =
  let parts =
    List.map (fun (v, c) -> Printf.sprintf "%g*x%d" c v) l.coeffs
  in
  String.concat " + " (parts @ [ Printf.sprintf "%g" l.const ])

let print_binlp (p : Optim.Binlp.problem) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "min %s\n"
       (String.concat " + "
          (List.mapi
             (fun i c -> Printf.sprintf "%g*x%d" c i)
             (Array.to_list p.objective))));
  List.iter
    (fun g ->
      Buffer.add_string b
        (Printf.sprintf "sos1 {%s}\n"
           (String.concat "," (List.map (Printf.sprintf "x%d") g))))
    p.groups;
  List.iter
    (fun (c : Optim.Binlp.constr) ->
      let term = function
        | Optim.Binlp.Lin l -> Printf.sprintf "(%s)" (print_lin l)
        | Optim.Binlp.Prod (x, y) ->
            Printf.sprintf "(%s)*(%s)" (print_lin x) (print_lin y)
      in
      Buffer.add_string b
        (Printf.sprintf "%s %s %g\n"
           (String.concat " + " (List.map term c.terms))
           (match c.rel with Le -> "<=" | Ge -> ">=")
           c.bound))
    p.constraints;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON documents                                                      *)
(* ------------------------------------------------------------------ *)

let json_float =
  G.map
    (fun f -> if Float.is_finite f then f else 0.0)
    (G.frequency
       [
         (3, G.float);
         (2, G.map (fun n -> float_of_int n /. 3.0) (G.int_range (-1000) 1000));
         (2, G.map float_of_int (G.int_range (-1_000_000) 1_000_000));
         ( 1,
           G.oneofl
             [
               0.1 +. 0.2; 1.0 /. 3.0; Float.pi; 1e-300; 5e-324;
               1.7976931348623157e308; 1.000000000001234;
             ] );
       ])

let json_string =
  G.frequency
    [
      (4, G.string_printable);
      (1, G.oneofl [ "\"quoted\""; "back\\slash"; "new\nline"; "tab\ttab"; "" ]);
    ]

let rec json_value depth =
  let leaf =
    G.frequency
      [
        (1, G.return Obs.Json.Null);
        (2, G.map (fun b -> Obs.Json.Bool b) G.bool);
        (3, G.map (fun n -> Obs.Json.Int n) (G.int_range (-1_000_000_000) 1_000_000_000));
        (3, G.map (fun f -> Obs.Json.Float f) json_float);
        (2, G.map (fun s -> Obs.Json.String s) json_string);
      ]
  in
  if depth <= 0 then leaf
  else
    G.frequency
      [
        (3, leaf);
        ( 1,
          let* n = G.int_range 0 4 in
          let* elems = G.list_size (G.return n) (json_value (depth - 1)) in
          G.return (Obs.Json.List elems) );
        ( 1,
          let* n = G.int_range 0 4 in
          let* fields =
            G.list_size (G.return n)
              (let* k = json_string in
               let* v = json_value (depth - 1) in
               G.return (k, v))
          in
          G.return (Obs.Json.Obj fields) );
      ]

let json = json_value 3

let print_json = Obs.Json.to_string

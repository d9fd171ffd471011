(* Tests for the static cycle-bound analysis: instruction-mix
   exactness on straight-line code, trip-count formulas, pricing
   sanity, and the engine's bounds gate picking exactly what a full
   sweep picks while simulating less. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module Ast = Minic.Ast
module B = Minic.Bounds
module Leon2 = Dse.Leon2.S

let program ?(globals = []) ?(locals = []) body =
  { Ast.globals; funcs = [ { Ast.name = "main"; params = []; locals; body } ] }

let checked p =
  match Minic.Check.check p with
  | Ok () -> p
  | Error es -> Alcotest.failf "check: %s" (String.concat "; " es)

(* --- instruction-mix exactness --- *)

let test_straight_line_exact () =
  let open Ast in
  let p =
    checked
      (program ~locals:[ "a"; "b" ]
         [
           Set ("a", i 5);
           Set ("b", (v "a" * i 3) + (v "a" <<< i 2));
           Set ("b", v "b" / i 2);
           Ret (v "a" + v "b");
         ])
  in
  let s = B.summary p in
  let n = B.insns s.B.mix in
  check_bool "loop-free counts are exact" true (Stdlib.( = ) n.B.lo n.B.hi);
  check_int "one multiply" 1 s.B.mix.B.mul.B.hi;
  check_int "one divide" 1 s.B.mix.B.div.B.hi;
  check_int "one shift" 1 s.B.mix.B.shift.B.hi;
  check_int "no loops" 0 s.B.loops;
  (* the simulator retires exactly the predicted instruction count *)
  let r =
    Dse.Target_leon2.run_program Arch.Config.base (Minic.Codegen.compile p)
  in
  check_int "retired instructions match the static count" n.B.lo
    r.Sim.Machine.profile.Sim.Profiler.instructions;
  let lo, hi =
    Dse.Bounds.cycles
      (Dse.Target_leon2.cycle_model Arch.Config.base)
      s
  in
  let cyc = float_of_int r.Sim.Machine.profile.Sim.Profiler.cycles in
  check_bool "cycles within the static bounds" true
    (Stdlib.( <= ) lo cyc && Stdlib.( <= ) cyc hi)

(* --- trip-count formulas --- *)

let trips body =
  match B.loop_trips (checked (program ~locals:[ "k"; "s" ] body)) with
  | [ ("main", c) ] -> c
  | l -> Alcotest.failf "expected one loop, got %d" (List.length l)

let test_trips_increment () =
  let open Ast in
  let c =
    trips
      [
        Set ("k", i 0);
        While (v "k" < i 10, [ Set ("k", v "k" + i 1) ]);
        Ret (v "k");
      ]
  in
  check_int "k<10 step 1: lo" 10 c.B.lo;
  check_int "k<10 step 1: hi" 10 c.B.hi

let test_trips_stride () =
  let open Ast in
  let c =
    trips
      [
        Set ("k", i 0);
        While (v "k" < i 10, [ Set ("k", v "k" + i 3) ]);
        Ret (v "k");
      ]
  in
  (* ceil(10/3) = 4 iterations: k = 0, 3, 6, 9 *)
  check_int "k<10 step 3: lo" 4 c.B.lo;
  check_int "k<10 step 3: hi" 4 c.B.hi

let test_trips_le () =
  let open Ast in
  let c =
    trips
      [
        Set ("k", i 1);
        While (v "k" <= i 10, [ Set ("k", v "k" + i 2) ]);
        Ret (v "k");
      ]
  in
  (* k = 1, 3, 5, 7, 9: five iterations *)
  check_int "k<=10 step 2: lo" 5 c.B.lo;
  check_int "k<=10 step 2: hi" 5 c.B.hi

let test_trips_decrement () =
  let open Ast in
  let c =
    trips
      [
        Set ("k", i 8);
        While (v "k" > i 0, [ Set ("k", v "k" - i 1) ]);
        Ret (v "k");
      ]
  in
  check_int "k>0 step -1: lo" 8 c.B.lo;
  check_int "k>0 step -1: hi" 8 c.B.hi

let test_trips_unbounded () =
  let open Ast in
  (* the condition variable is not an induction variable the analysis
     recognizes (conditional update), so the loop must get top *)
  let c =
    trips
      [
        Set ("k", i 0);
        Set ("s", i 0);
        While
          ( v "k" < i 10,
            [ If (v "s" < i 5, [ Set ("k", v "k" + i 1) ], []) ] );
        Ret (v "k");
      ]
  in
  check_int "conditional step: lo is 0" 0 c.B.lo;
  check_bool "conditional step: hi is unbounded" true
    (Stdlib.( = ) c.B.hi B.unbounded)

(* --- pricing: slower functional units can only raise the bounds --- *)

let test_pricing_monotone () =
  let with_mul m =
    { Arch.Config.base with
      Arch.Config.iu =
        { Arch.Config.base.Arch.Config.iu with Arch.Config.multiplier = m }
    }
  in
  let bounds m =
    Dse.Bounds.app_bounds
      (Dse.Target_leon2.cycle_model (with_mul m))
      Apps.Registry.arith
  in
  let lo_fast, hi_fast = bounds Arch.Config.Mul_32x32 in
  let lo_slow, hi_slow = bounds Arch.Config.Mul_none in
  check_bool "slower multiplier raises the lower bound" true
    (lo_slow > lo_fast);
  check_bool "slower multiplier raises the upper bound" true
    (hi_slow > hi_fast)

let test_tightness () =
  Alcotest.(check (option (float 1e-9)))
    "ratio" (Some 2.0)
    (Dse.Bounds.tightness ~lo:3.0 ~hi:6.0);
  Alcotest.(check (option (float 1e-9)))
    "zero lower bound" None
    (Dse.Bounds.tightness ~lo:0.0 ~hi:6.0);
  Alcotest.(check (option (float 1e-9)))
    "unbounded" None
    (Dse.Bounds.tightness ~lo:3.0 ~hi:infinity)

(* --- bounds-gated search --- *)

(* The engine's admission gate against a full sweep: with the fastest
   simulated runtime as the cutoff, a pruned configuration's static
   lower bound exceeds the cutoff and is no more than its simulated
   runtime, so it could neither win nor tie, and the fastest admitted
   configuration is the sweep's pick. *)
let test_gated_search_identity () =
  let app = Apps.Registry.arith in
  let with_mul m =
    { Arch.Config.base with
      Arch.Config.iu =
        { Arch.Config.base.Arch.Config.iu with Arch.Config.multiplier = m }
    }
  in
  let configs =
    List.map with_mul
      [
        Arch.Config.Mul_none;
        Arch.Config.Mul_iterative;
        Arch.Config.Mul_16x16;
        Arch.Config.Mul_32x16;
        Arch.Config.Mul_32x32;
      ]
  in
  let swept = Leon2.Exhaustive.sweep app configs in
  let plain = Leon2.Exhaustive.best_runtime swept in
  let seconds (p : Leon2.Exhaustive.point) =
    match p.Leon2.Exhaustive.cost with
    | Some c -> c.Dse.Cost.seconds
    | None -> Alcotest.fail "every multiplier variant fits the device"
  in
  let cutoff = seconds plain in
  let engine = Dse.Engine.create () in
  let gated =
    List.map
      (fun (p : Leon2.Exhaustive.point) ->
        let config = p.Leon2.Exhaustive.config in
        match
          Dse.Engine.eval_bounded_on
            ~cutoff:(fun _ -> cutoff)
            engine Dse.Target_leon2.probe app config
        with
        | Dse.Engine.Pruned (lo, _) ->
            check_bool "pruned only above the cutoff" true (lo > cutoff);
            check_bool "lower bound within the simulated runtime" true
              (seconds p >= lo);
            { Leon2.Exhaustive.config; cost = None }
        | Dse.Engine.Evaluated cost -> { Leon2.Exhaustive.config; cost = Some cost }
        | Dse.Engine.Infeasible -> Alcotest.fail "unexpectedly infeasible")
      swept
  in
  check_bool "the gate pruned a dominated configuration" true
    (List.exists (fun p -> p.Leon2.Exhaustive.cost = None) gated);
  let searched = Leon2.Exhaustive.best_runtime gated in
  check_bool "same winning configuration" true
    (Dse.Target_leon2.to_string plain.Leon2.Exhaustive.config
    = Dse.Target_leon2.to_string searched.Leon2.Exhaustive.config);
  Alcotest.(check (float 0.0)) "same runtime" cutoff (seconds searched)

let () =
  Alcotest.run "bounds"
    [
      ( "mix",
        [
          Alcotest.test_case "straight-line exactness" `Quick
            test_straight_line_exact;
        ] );
      ( "trips",
        [
          Alcotest.test_case "unit stride" `Quick test_trips_increment;
          Alcotest.test_case "stride 3" `Quick test_trips_stride;
          Alcotest.test_case "inclusive bound" `Quick test_trips_le;
          Alcotest.test_case "decrement" `Quick test_trips_decrement;
          Alcotest.test_case "unbounded" `Quick test_trips_unbounded;
        ] );
      ( "pricing",
        [
          Alcotest.test_case "monotone in stalls" `Quick test_pricing_monotone;
          Alcotest.test_case "tightness" `Quick test_tightness;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "gated search identity" `Quick
            test_gated_search_identity;
        ] );
    ]

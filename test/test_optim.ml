(* Tests for the optimization substrate: the exact branch-and-bound
   BINLP solver. *)

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

(* --- BINLP --- *)

let blp ?(groups = []) nvars objective constraints =
  { Optim.Binlp.nvars; objective; groups; constraints }

(* Most tests only care about the winning point; the outcome record's
   status/nodes fields get their own tests below. *)
let solve ?node_limit p = (Optim.Binlp.solve ?node_limit p).Optim.Binlp.best

let test_binlp_unconstrained () =
  (* Free binaries: pick exactly the negative-cost ones. *)
  let p = blp 4 [| -2.0; 3.0; -1.0; 0.0 |] [] in
  match solve p with
  | None -> Alcotest.fail "expected solution"
  | Some s ->
      check_float "objective" (-3.0) s.objective;
      check_bool "x0" true s.x.(0);
      check_bool "x1" false s.x.(1);
      check_bool "x2" true s.x.(2)

let test_binlp_sos1 () =
  (* One group with two attractive options: only one may be chosen. *)
  let p = blp ~groups:[ [ 0; 1 ] ] 2 [| -5.0; -4.0 |] [] in
  match solve p with
  | None -> Alcotest.fail "expected solution"
  | Some s ->
      check_float "objective" (-5.0) s.objective;
      check_bool "picked the better" true s.x.(0);
      check_bool "not both" false s.x.(1)

let test_binlp_linear_constraint () =
  (* Knapsack-flavoured: min -sum x st weights <= cap. *)
  let lin coeffs const = { Optim.Binlp.coeffs; const } in
  let p =
    blp 3 [| -6.0; -5.0; -4.0 |]
      [ Optim.Binlp.linear (lin [ (0, 5.0); (1, 4.0); (2, 3.0) ] 0.0) Optim.Binlp.Le 8.0 ]
  in
  match solve p with
  | None -> Alcotest.fail "expected solution"
  | Some s ->
      (* best: x1 + x2 (weight 7, value 9) vs x0 + x2 (8, 10): latter. *)
      check_float "objective" (-10.0) s.objective

let test_binlp_implication () =
  (* x0 <= x1 (paper's LRR coupling): choosing x0 forces x1. *)
  let lin coeffs const = { Optim.Binlp.coeffs; const } in
  let p =
    blp 2 [| -10.0; 4.0 |]
      [ Optim.Binlp.linear (lin [ (0, 1.0); (1, -1.0) ] 0.0) Optim.Binlp.Le 0.0 ]
  in
  match solve p with
  | None -> Alcotest.fail "expected solution"
  | Some s ->
      check_float "objective" (-6.0) s.objective;
      check_bool "x0" true s.x.(0);
      check_bool "x1 forced" true s.x.(1)

let test_binlp_product_constraint () =
  (* (1 + x0) * (2 x1 + 3 x2) <= 4: x1,x2 free goodies but the product
     caps what can combine with x0. *)
  let lin coeffs const = { Optim.Binlp.coeffs; const } in
  let p =
    blp 3 [| -3.0; -2.0; -2.5 |]
      [
        Optim.Binlp.product
          (lin [ (0, 1.0) ] 1.0)
          (lin [ (1, 2.0); (2, 3.0) ] 0.0)
          Optim.Binlp.Le 4.0;
      ]
  in
  (match solve p with
  | None -> Alcotest.fail "expected solution"
  | Some s ->
      (* candidates: x0+x1 -> product 4 ok, obj -5; x0+x2 -> 6 infeasible;
         x1+x2 -> 5 infeasible with x0? (1)*(5)=5 > 4 infeasible;
         x0 alone -3; x1+x2 without x0: (1)(5)=5 > 4 no. So -5. *)
      check_float "objective" (-5.0) s.objective);
  (* And brute force agrees. *)
  match (solve p, Optim.Binlp.brute_force p) with
  | Some a, Some b -> check_float "matches brute force" b.objective a.objective
  | _ -> Alcotest.fail "both should solve"

let test_binlp_infeasible () =
  let lin coeffs const = { Optim.Binlp.coeffs; const } in
  let p =
    blp 2 [| 0.0; 0.0 |]
      [ Optim.Binlp.linear (lin [ (0, 1.0); (1, 1.0) ] 0.0) Optim.Binlp.Ge 3.0 ]
  in
  check_bool "infeasible" true (solve p = None)

let test_binlp_forced_positive_cost () =
  (* A Ge constraint can force paying a positive cost. *)
  let lin coeffs const = { Optim.Binlp.coeffs; const } in
  let p =
    blp 2 [| 5.0; 7.0 |]
      [ Optim.Binlp.linear (lin [ (0, 1.0); (1, 1.0) ] 0.0) Optim.Binlp.Ge 1.0 ]
  in
  match solve p with
  | None -> Alcotest.fail "expected solution"
  | Some s -> check_float "cheapest forced var" 5.0 s.objective

let test_binlp_overlapping_groups_rejected () =
  let p = blp ~groups:[ [ 0; 1 ]; [ 1 ] ] 2 [| 0.0; 0.0 |] [] in
  match solve p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* Random differential test against brute force: a problem and 0-3
   objective terms, linear or product, with integer coefficients like
   its constraints. *)
let gen_problem =
  let open QCheck.Gen in
  int_range 2 8 >>= fun nvars ->
  let coef = map (fun k -> float_of_int (k - 6)) (int_range 0 12) in
  array_size (return nvars) coef >>= fun objective ->
  (* groups: split a prefix of variables into up to 2 groups *)
  int_range 0 (min 2 (nvars / 2)) >>= fun ngroups ->
  let groups =
    if ngroups = 0 then []
    else if ngroups = 1 then [ List.init (nvars / 2) (fun i -> i) ]
    else
      [
        List.init (nvars / 4 + 1) (fun i -> i);
        List.init (nvars / 4) (fun i -> (nvars / 4) + 1 + i);
      ]
  in
  let lin_gen =
    list_size (int_range 1 nvars)
      (pair (int_range 0 (nvars - 1)) coef)
    >>= fun coeffs ->
    coef >>= fun const -> return { Optim.Binlp.coeffs; const }
  in
  let constr_gen =
    frequency
      [
        ( 3,
          lin_gen >>= fun l ->
          oneofl [ Optim.Binlp.Le; Optim.Binlp.Ge ] >>= fun rel ->
          map (fun k -> Optim.Binlp.linear l rel (float_of_int (k - 3))) (int_range 0 14) );
        ( 1,
          lin_gen >>= fun l1 ->
          lin_gen >>= fun l2 ->
          oneofl [ Optim.Binlp.Le; Optim.Binlp.Ge ] >>= fun rel ->
          map (fun k -> Optim.Binlp.product l1 l2 rel (float_of_int (k - 5))) (int_range 0 30) );
      ]
  in
  list_size (int_range 0 3) constr_gen >>= fun constraints ->
  let term_gen =
    frequency
      [
        (1, map (fun l -> Optim.Binlp.Lin l) lin_gen);
        ( 1,
          lin_gen >>= fun l1 ->
          map (fun l2 -> Optim.Binlp.Prod (l1, l2)) lin_gen );
      ]
  in
  list_size (int_range 0 3) term_gen >>= fun objective_terms ->
  return
    ({ Optim.Binlp.nvars; objective; groups; constraints }, objective_terms)

let test_binlp_vs_brute_force () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"B&B = brute force" (QCheck.make gen_problem)
       (fun (p, objective_terms) ->
         let a = (Optim.Binlp.solve ~objective_terms p).Optim.Binlp.best in
         let b = Optim.Binlp.brute_force ~objective_terms p in
         match (a, b) with
         | None, None -> true
         | Some sa, Some sb ->
             (* Exact assignment equality: the generator emits integer
                coefficients and both sides pin the same tie-break, so
                even the winning point must be identical. *)
             Float.abs (sa.objective -. sb.objective) < 1e-9
             && sa.x = sb.x
             && Optim.Binlp.check p sa.x
         | Some _, None | None, Some _ -> false))

let test_binlp_52var_scale () =
  (* A synthetic problem with the paper's structure and size solves
     quickly and exactly. *)
  let nvars = 52 in
  let objective =
    Array.init nvars (fun j -> Float.of_int ((j * 7 mod 13) - 6) /. 3.0)
  in
  let groups =
    [
      [ 0; 1; 2 ];
      [ 3; 4; 5; 6; 7 ];
      [ 9; 10 ];
      [ 11; 12; 13 ];
      [ 14; 15; 16; 17; 18 ];
      [ 20; 21 ];
      List.init 17 (fun i -> 29 + i);
      List.init 5 (fun i -> 46 + i);
    ]
  in
  let lin coeffs const = { Optim.Binlp.coeffs; const } in
  let beta = List.init nvars (fun j -> (j, Float.of_int (j mod 5) /. 2.0)) in
  let p =
    {
      Optim.Binlp.nvars;
      objective;
      groups;
      constraints =
        [
          Optim.Binlp.product
            (lin [ (11, 1.0); (12, 2.0); (13, 3.0) ] 1.0)
            (lin beta 0.0) Optim.Binlp.Le 30.0;
          Optim.Binlp.linear (lin beta 0.0) Optim.Binlp.Le 40.0;
        ];
    }
  in
  match solve p with
  | None -> Alcotest.fail "expected solution"
  | Some s ->
      check_bool "feasible" true (Optim.Binlp.check p s.x);
      check_bool "negative objective" true (s.objective < 0.0)

let test_binlp_tiebreak_lex () =
  (* Two equally-good options: the pinned tie-break picks the
     lexicographically-smallest assignment (false < true at the first
     differing index) in both the B&B and the brute-force reference. *)
  let p = blp ~groups:[ [ 0; 1 ] ] 2 [| -1.0; -1.0 |] [] in
  let expect label = function
    | None -> Alcotest.fail (label ^ ": expected solution")
    | Some (s : Optim.Binlp.solution) ->
        check_float (label ^ " objective") (-1.0) s.objective;
        check_bool (label ^ " x0") false s.x.(0);
        check_bool (label ^ " x1") true s.x.(1)
  in
  expect "solve" (solve p);
  expect "brute" (Optim.Binlp.brute_force p)

let test_binlp_node_limit_incumbent () =
  (* 16 negative free binaries: the first dive reaches the all-selected
     (optimal) leaf within ~17 nodes, while the full search needs ~33;
     a 20-node budget must keep that incumbent and report the
     truncation instead of discarding the work. *)
  let p = blp 16 (Array.make 16 (-1.0)) [] in
  let o = Optim.Binlp.solve ~node_limit:20 p in
  (match o.Optim.Binlp.status with
  | Optim.Binlp.Node_limit_reached -> ()
  | Optim.Binlp.Optimal ->
      Alcotest.failf "expected node-limit status (nodes=%d)" o.Optim.Binlp.nodes);
  match o.Optim.Binlp.best with
  | None -> Alcotest.fail "expected a preserved incumbent"
  | Some s ->
      check_bool "feasible" true (Optim.Binlp.check p s.x);
      check_float "incumbent objective" (-16.0) s.objective

let test_binlp_parallel_identity () =
  (* The frontier-split search with a shared atomic incumbent must be
     bit-identical to the inline solve for every worker count: same
     status, same objective bits, same assignment. *)
  let pool2 = Dse.Pool.create ~workers:2 () in
  let pool4 = Dse.Pool.create ~workers:4 () in
  Fun.protect
    ~finally:(fun () ->
      Dse.Pool.shutdown pool2;
      Dse.Pool.shutdown pool4)
    (fun () ->
      QCheck.Test.check_exn
        (QCheck.Test.make ~count:120 ~name:"parallel = sequential"
           (QCheck.make gen_problem) (fun (p, objective_terms) ->
             let seq = Optim.Binlp.solve ~objective_terms p in
             List.for_all
               (fun pool ->
                 let par =
                   Optim.Binlp.solve ~runner:(Dse.Pool.solver_runner pool)
                     ~objective_terms p
                 in
                 par.Optim.Binlp.status = seq.Optim.Binlp.status
                 &&
                 match (seq.Optim.Binlp.best, par.Optim.Binlp.best) with
                 | None, None -> true
                 | Some a, Some b ->
                     Int64.bits_of_float a.Optim.Binlp.objective
                     = Int64.bits_of_float b.Optim.Binlp.objective
                     && a.Optim.Binlp.x = b.Optim.Binlp.x
                 | Some _, None | None, Some _ -> false)
               [ pool2; pool4 ])))

let () =
  Alcotest.run "optim"
    [
      ( "binlp",
        [
          Alcotest.test_case "unconstrained" `Quick test_binlp_unconstrained;
          Alcotest.test_case "sos1" `Quick test_binlp_sos1;
          Alcotest.test_case "linear constraint" `Quick test_binlp_linear_constraint;
          Alcotest.test_case "implication" `Quick test_binlp_implication;
          Alcotest.test_case "product constraint" `Quick test_binlp_product_constraint;
          Alcotest.test_case "infeasible" `Quick test_binlp_infeasible;
          Alcotest.test_case "forced cost" `Quick test_binlp_forced_positive_cost;
          Alcotest.test_case "overlap rejected" `Quick test_binlp_overlapping_groups_rejected;
          Alcotest.test_case "vs brute force (qcheck)" `Quick test_binlp_vs_brute_force;
          Alcotest.test_case "52-variable scale" `Quick test_binlp_52var_scale;
          Alcotest.test_case "lex tie-break" `Quick test_binlp_tiebreak_lex;
          Alcotest.test_case "node limit keeps incumbent" `Quick
            test_binlp_node_limit_incumbent;
          Alcotest.test_case "parallel identity (qcheck)" `Quick
            test_binlp_parallel_identity;
        ] );
    ]

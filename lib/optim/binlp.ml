type rel = Le | Ge

type lin = { coeffs : (int * float) list; const : float }

type term = Lin of lin | Prod of lin * lin

type constr = { terms : term list; rel : rel; bound : float }

let linear l rel bound = { terms = [ Lin l ]; rel; bound }
let product l1 l2 rel bound = { terms = [ Prod (l1, l2) ]; rel; bound }

type problem = {
  nvars : int;
  objective : float array;
  groups : int list list;
  constraints : constr list;
}

type solution = { x : bool array; objective : float }

type status = Optimal | Node_limit_reached

type outcome = { best : solution option; status : status; nodes : int }

type runner = { workers : int; run_batch : (unit -> unit) list -> unit }

let inline_runner = { workers = 1; run_batch = List.iter (fun f -> f ()) }

let eval_lin l x =
  List.fold_left
    (fun acc (j, a) -> if x.(j) then acc +. a else acc)
    l.const l.coeffs

let eval_term x = function
  | Lin l -> eval_lin l x
  | Prod (l1, l2) -> eval_lin l1 x *. eval_lin l2 x

let eval_constr_lhs c x =
  List.fold_left (fun acc t -> acc +. eval_term x t) 0.0 c.terms

let check_constr x c =
  let lhs = eval_constr_lhs c x in
  match c.rel with Le -> lhs <= c.bound +. 1e-9 | Ge -> lhs >= c.bound -. 1e-9

let sos1_ok groups x =
  List.for_all
    (fun g -> List.length (List.filter (fun j -> x.(j)) g) <= 1)
    groups

let check p x = sos1_ok p.groups x && List.for_all (check_constr x) p.constraints

let validate p =
  let seen = Array.make p.nvars false in
  List.iter
    (fun g ->
      List.iter
        (fun j ->
          if j < 0 || j >= p.nvars then invalid_arg "Binlp: index out of range";
          if seen.(j) then invalid_arg "Binlp: overlapping groups";
          seen.(j) <- true)
        g)
    p.groups;
  if Array.length p.objective <> p.nvars then
    invalid_arg "Binlp: objective length mismatch";
  let check_lin l =
    List.iter
      (fun (j, _) ->
        if j < 0 || j >= p.nvars then
          invalid_arg "Binlp: constraint index out of range")
      l.coeffs
  in
  List.iter
    (fun c ->
      List.iter
        (function
          | Lin l -> check_lin l
          | Prod (l1, l2) ->
              check_lin l1;
              check_lin l2)
        c.terms)
    p.constraints;
  seen

(* The effective group list: declared groups plus a singleton group for
   every uncovered variable.  Each group's options are "none" or exactly
   one member. *)
let effective_groups p =
  let covered = validate p in
  let singles = ref [] in
  for j = p.nvars - 1 downto 0 do
    if not covered.(j) then singles := [ j ] :: !singles
  done;
  List.filter (fun g -> g <> []) p.groups @ !singles

(* Float-specialised [Stdlib.min]/[Stdlib.max]: the same comparison, so
   the same result on NaN and signed zero, without the polymorphic
   call. *)
let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b

let[@inline] product_min l1 u1 l2 u2 =
  fmin (fmin (l1 *. l2) (l1 *. u2)) (fmin (u1 *. l2) (u1 *. u2))

let[@inline] product_max l1 u1 l2 u2 =
  fmax (fmax (l1 *. l2) (l1 *. u2)) (fmax (u1 *. l2) (u1 *. u2))

(* The pinned tie-break: first differing index decides, an unselected
   variable beats a selected one.  Together with the canonical leaf
   objective this gives solve, brute_force and every worker count the
   same winner on equally-optimal problems. *)
let lex_lt a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then false else if a.(i) = b.(i) then go (i + 1) else not a.(i)
  in
  go 0

(* The incumbent objective is always recomputed from the assignment in
   index order — the same summation brute_force uses — so equal optima
   compare bit-exactly regardless of the float-addition order the DFS
   happened to accumulate along its path. *)
let canonical_objective objective x =
  let obj = ref 0.0 in
  Array.iteri (fun j b -> if b then obj := !obj +. objective.(j)) x;
  !obj

let better_solution a b =
  a.objective < b.objective
  || (a.objective = b.objective && lex_lt a.x b.x)

(* A problem compiled once per solve into flat arrays, shared read-only
   by every subtree task.  Every linear factor has an id — the
   constraint terms in order, then the objective terms — and a term is
   a pair of ids in [cons] or [oterms], the second [-1] for a linear
   term. *)
type compiled = {
  ngroups : int;
  suffix_obj : float array;
      (* per depth: the best objective the groups at depth.. can add *)
  neg_opts : int array array;
  rest_opts : int array array;
      (* per depth, the branch order: improving options cheapest-first,
         then "none", then the rest *)
  init : float array;  (* factor constants: values at the empty point *)
  smin : float array;
  smax : float array;
      (* at [factor * (ngroups + 1) + depth]: the min/max contribution
         the groups at depth.. can still add to the factor *)
  col_start : int array;
  col_factor : int array;
  col_coeff : float array;
      (* variable [j]'s column, entries [col_start.(j)] to
         [col_start.(j + 1) - 1]: each factor with a non-zero summed
         coefficient for [j], and that coefficient *)
  cons : int array array;
  cons_le : bool array;
  cons_bound : float array;  (* the bound, 1e-9 tolerance applied *)
  oterms : int array;
}

let compile p objective_terms =
  let garr = Array.of_list (effective_groups p) in
  let ngroups = Array.length garr in
  (* Order groups by their best (most negative) objective option so the
     DFS reaches good incumbents early; ties broken by smallest member
     index so the order — and hence the frontier split — is fully
     deterministic.  Keys are computed once; being distinct, they fix
     the order whatever the sort. *)
  let keyed =
    Array.map
      (fun g ->
        ( List.fold_left (fun acc j -> fmin acc p.objective.(j)) 0.0 g,
          List.fold_left Int.min max_int g,
          g ))
      garr
  in
  Array.sort
    (fun (a, ia, _) (b, ib, _) ->
      let c = Float.compare a b in
      if c <> 0 then c else Int.compare ia ib)
    keyed;
  let members = Array.map (fun (_, _, g) -> Array.of_list g) keyed in
  let suffix_obj = Array.make (ngroups + 1) 0.0 in
  for i = ngroups - 1 downto 0 do
    let gmin, _, _ = keyed.(i) in
    suffix_obj.(i) <- suffix_obj.(i + 1) +. gmin
  done;
  let opt_cmp a b =
    let c = Float.compare p.objective.(a) p.objective.(b) in
    if c <> 0 then c else Int.compare a b
  in
  let part sel =
    Array.map
      (fun (_, _, g) ->
        let opts = Array.of_list (List.filter sel g) in
        Array.sort opt_cmp opts;
        opts)
      keyed
  in
  let neg_opts = part (fun j -> p.objective.(j) < 0.0) in
  let rest_opts = part (fun j -> p.objective.(j) >= 0.0) in
  let factors = ref [] and nfactors = ref 0 in
  let factor l =
    factors := l :: !factors;
    incr nfactors;
    !nfactors - 1
  in
  let ids terms =
    let a = Array.make (2 * List.length terms) (-1) in
    List.iteri
      (fun i t ->
        match t with
        | Lin l -> a.(2 * i) <- factor l
        | Prod (l1, l2) ->
            a.(2 * i) <- factor l1;
            a.(2 * i + 1) <- factor l2)
      terms;
    a
  in
  let cons = Array.of_list (List.map (fun c -> ids c.terms) p.constraints) in
  let oterms = ids objective_terms in
  let lins = Array.of_list (List.rev !factors) in
  let stride = ngroups + 1 in
  let smin = Array.make (!nfactors * stride) 0.0 in
  let smax = Array.make (!nfactors * stride) 0.0 in
  (* One dense pass per factor: sum its coefficients per variable (the
     summation order of a scan of [coeffs]), fold them into the
     per-group suffix bounds, then emit the non-zero ones as column
     entries and clear the scratch row. *)
  let dense = Array.make p.nvars 0.0 in
  let nentries = Array.fold_left (fun n l -> n + List.length l.coeffs) 0 lins in
  let e_var = Array.make nentries 0 and e_factor = Array.make nentries 0 in
  let e_coeff = Array.make nentries 0.0 in
  let ne = ref 0 in
  let col_start = Array.make (p.nvars + 1) 0 in
  Array.iteri
    (fun f l ->
      List.iter (fun (k, a) -> dense.(k) <- dense.(k) +. a) l.coeffs;
      let base = f * stride in
      for i = ngroups - 1 downto 0 do
        let g = members.(i) in
        let lo = ref 0.0 and hi = ref 0.0 in
        for m = 0 to Array.length g - 1 do
          let a = dense.(g.(m)) in
          lo := fmin !lo a;
          hi := fmax !hi a
        done;
        smin.(base + i) <- smin.(base + i + 1) +. !lo;
        smax.(base + i) <- smax.(base + i + 1) +. !hi
      done;
      List.iter
        (fun (k, _) ->
          let a = dense.(k) in
          if a <> 0.0 then begin
            e_var.(!ne) <- k;
            e_factor.(!ne) <- f;
            e_coeff.(!ne) <- a;
            incr ne;
            col_start.(k + 1) <- col_start.(k + 1) + 1
          end;
          dense.(k) <- 0.0)
        l.coeffs)
    lins;
  for j = 1 to p.nvars do
    col_start.(j) <- col_start.(j) + col_start.(j - 1)
  done;
  let next = Array.sub col_start 0 p.nvars in
  let col_factor = Array.make !ne 0 and col_coeff = Array.make !ne 0.0 in
  for e = 0 to !ne - 1 do
    let k = e_var.(e) in
    col_factor.(next.(k)) <- e_factor.(e);
    col_coeff.(next.(k)) <- e_coeff.(e);
    next.(k) <- next.(k) + 1
  done;
  {
    ngroups;
    suffix_obj;
    neg_opts;
    rest_opts;
    init = Array.map (fun l -> l.const) lins;
    smin;
    smax;
    col_start;
    col_factor;
    col_coeff;
    cons;
    cons_le = Array.of_list (List.map (fun c -> c.rel = Le) p.constraints);
    cons_bound =
      Array.of_list
        (List.map
           (fun c ->
             match c.rel with Le -> c.bound +. 1e-9 | Ge -> c.bound -. 1e-9)
           p.constraints);
    oterms;
  }

(* Choosing or un-choosing variable [j] moves only the factors in its
   column. *)
let apply c v j =
  for e = c.col_start.(j) to c.col_start.(j + 1) - 1 do
    let f = c.col_factor.(e) in
    v.(f) <- v.(f) +. c.col_coeff.(e)
  done

let undo c v j =
  for e = c.col_start.(j) to c.col_start.(j + 1) - 1 do
    let f = c.col_factor.(e) in
    v.(f) <- v.(f) -. c.col_coeff.(e)
  done

(* The lower ([lower]) or upper interval bound of a sum of terms over
   every completion of the groups at [depth..]: factor [f] ranges over
   [v.(f) + smin, v.(f) + smax], a product over the interval product,
   and the terms add in declaration order. *)
let[@inline] terms_bound c v depth ids lower =
  let stride = c.ngroups + 1 in
  let acc = ref 0.0 and t = ref 0 in
  while !t < Array.length ids do
    let f1 = ids.(!t) and f2 = ids.(!t + 1) in
    let i1 = (f1 * stride) + depth in
    (if f2 < 0 then
       acc := !acc +. v.(f1) +. (if lower then c.smin.(i1) else c.smax.(i1))
     else
       let i2 = (f2 * stride) + depth in
       let v1 = v.(f1) and v2 = v.(f2) in
       let l1 = v1 +. c.smin.(i1) and u1 = v1 +. c.smax.(i1) in
       let l2 = v2 +. c.smin.(i2) and u2 = v2 +. c.smax.(i2) in
       acc :=
         !acc
         +. (if lower then product_min l1 u1 l2 u2
             else product_max l1 u1 l2 u2));
    t := !t + 2
  done;
  !acc

let feasible_possible c v depth =
  let ok = ref true and k = ref 0 in
  while !ok && !k < Array.length c.cons do
    let ids = c.cons.(!k) and bound = c.cons_bound.(!k) in
    ok :=
      if c.cons_le.(!k) then terms_bound c v depth ids true <= bound
      else terms_bound c v depth ids false >= bound;
    incr k
  done;
  !ok

(* A subtree task's private search state: the assignment and the factor
   values it mutates in place along the DFS, plus local statistics that
   are folded into the shared totals when the task finishes. *)
type task = {
  x : bool array;
  v : float array;
  mutable snodes : int;
  mutable sflushed : int; (* nodes already reported to the shared total *)
  mutable spruned_bound : int;
  mutable spruned_validity : int;
  mutable sincumbents : int;
}

(* Search statistics land in the metrics registry (one flush per solve,
   so the per-node cost of accounting is a plain increment); incumbent
   improvements additionally become instant trace events so a Perfetto
   timeline shows when the search last made progress. *)
let m_solves = Obs.Metrics.Counter.v "binlp.solves" ~help:"solver invocations"

let m_nodes =
  Obs.Metrics.Counter.v "binlp.nodes" ~help:"branch-and-bound nodes explored"

let m_pruned_bound =
  Obs.Metrics.Counter.v "binlp.pruned_bound"
    ~help:"subtrees cut by the objective bound"

let m_pruned_validity =
  Obs.Metrics.Counter.v "binlp.pruned_validity"
    ~help:"subtrees cut by constraint interval propagation"

let m_incumbents =
  Obs.Metrics.Counter.v "binlp.incumbents" ~help:"incumbent improvements"

let m_tasks =
  Obs.Metrics.Counter.v "binlp.tasks" ~help:"subtree tasks explored"

exception Cancelled

let validate_terms p terms =
  let check_lin l =
    List.iter
      (fun (j, _) ->
        if j < 0 || j >= p.nvars then
          invalid_arg "Binlp: objective term index out of range")
      l.coeffs
  in
  List.iter
    (function
      | Lin l -> check_lin l
      | Prod (l1, l2) ->
          check_lin l1;
          check_lin l2)
    terms

(* The canonical leaf objective: the separable part summed in index
   order plus the extra terms in declaration order — the same
   summation everywhere, so equal optima compare bit-exactly. *)
let leaf_objective objective objective_terms x =
  match objective_terms with
  | [] -> canonical_objective objective x
  | ts ->
      canonical_objective objective x
      +. List.fold_left (fun acc t -> acc +. eval_term x t) 0.0 ts

let solve ?(node_limit = 20_000_000) ?(runner = inline_runner)
    ?(objective_terms = []) p =
  Obs.Span.with_span ~cat:"optim" "binlp.solve" @@ fun span ->
  validate_terms p objective_terms;
  let c = compile p objective_terms in
  let ngroups = c.ngroups in
  (* Shared solver state: the atomic incumbent (CAS below), a cached
     copy of its objective for the per-node bound read, the cooperative
     cancellation flag, and the node/prune totals the tasks fold into. *)
  let incumbent : solution option Atomic.t = Atomic.make None in
  let best_obj = Atomic.make infinity in
  let cancelled = Atomic.make false in
  let limit_hit = Atomic.make false in
  let total_nodes = Atomic.make 0 in
  let total_pruned_bound = Atomic.make 0 in
  let total_pruned_validity = Atomic.make 0 in
  let total_incumbents = Atomic.make 0 in
  let parallel = runner.workers >= 2 && ngroups >= 2 in
  (* Node accounting is chunked under parallel execution (the limit is
     then approximate by at most workers * chunk nodes).  The inline
     path has exactly one task, so its node count IS the total: the
     limit check stays exact without touching an atomic in the hot
     loop. *)
  let chunk = 128 in
  let note_node st =
    st.snodes <- st.snodes + 1;
    if parallel then begin
      if st.snodes - st.sflushed = chunk then begin
        st.sflushed <- st.snodes;
        if Atomic.fetch_and_add total_nodes chunk + chunk > node_limit then begin
          Atomic.set limit_hit true;
          Atomic.set cancelled true
        end
      end;
      if Atomic.get cancelled then raise Cancelled
    end
    else if st.snodes > node_limit then begin
      Atomic.set limit_hit true;
      raise Cancelled
    end
  in
  let offer st =
    let obj = leaf_objective p.objective objective_terms st.x in
    let cand = { x = Array.copy st.x; objective = obj } in
    let rec attempt () =
      let cur = Atomic.get incumbent in
      let improves =
        match cur with None -> true | Some b -> better_solution cand b
      in
      if improves then
        if Atomic.compare_and_set incumbent cur (Some cand) then begin
          (* A racing reader may briefly see the previous (never
             smaller) objective: that only weakens pruning, it cannot
             cut an optimum. *)
          Atomic.set best_obj obj;
          st.sincumbents <- st.sincumbents + 1;
          Obs.Span.event ~cat:"optim" "binlp.incumbent"
            ~attrs:
              [
                ("objective", Obs.Json.Float obj);
                ("node", Obs.Json.Int st.snodes);
              ];
          Obs.Span.counter ~cat:"optim" "binlp.objective"
            [ ("objective", obj) ];
          if Obs.Journal.enabled () then
            Obs.Journal.record ~kind:"binlp.incumbent"
              [
                ("node", Obs.Json.Int st.snodes);
                ("objective", Obs.Json.Float obj);
                ( "bound",
                  match cur with
                  | Some b when Float.is_finite b.objective ->
                      Obs.Json.Float b.objective
                  | Some _ | None -> Obs.Json.Null );
              ]
        end
        else attempt ()
    in
    attempt ()
  in
  let rec dfs st depth obj =
    note_node st;
    (* Strictly-worse prune only: a subtree whose bound ties the
       incumbent may still hold an equal-objective, lexicographically
       smaller assignment, and the tie-break must find it.  The
       objective terms are bounded by the same interval arithmetic as
       the constraints, so the prune stays admissible. *)
    let lb =
      if Array.length c.oterms = 0 then obj +. c.suffix_obj.(depth)
      else
        obj +. c.suffix_obj.(depth) +. terms_bound c st.v depth c.oterms true
    in
    if lb > Atomic.get best_obj +. 1e-12 then
      st.spruned_bound <- st.spruned_bound + 1
    else if not (feasible_possible c st.v depth) then
      st.spruned_validity <- st.spruned_validity + 1
    else if depth = ngroups then begin
      (* exact, from scratch: the tracked factor values may differ from
         it in the last bit *)
      if List.for_all (check_constr st.x) p.constraints then offer st
    end
    else begin
      let neg = c.neg_opts.(depth) and rest = c.rest_opts.(depth) in
      for i = 0 to Array.length neg - 1 do
        branch st depth obj neg.(i)
      done;
      dfs st (depth + 1) obj;
      for i = 0 to Array.length rest - 1 do
        branch st depth obj rest.(i)
      done
    end
  and branch st depth obj j =
    st.x.(j) <- true;
    apply c st.v j;
    dfs st (depth + 1) (obj +. p.objective.(j));
    undo c st.v j;
    st.x.(j) <- false
  in
  (* Frontier split: peel off the shallowest prefix of groups whose
     option cross-product yields enough independent subtree tasks to
     feed the workers (capped at depth 3).  Each task replays its
     prefix into a private state and explores the remaining groups,
     pruning against the shared incumbent — so late tasks inherit the
     cuts of whichever task improved it first. *)
  let frontier_depth =
    if not parallel then 0
    else begin
      let d = ref 0 and t = ref 1 in
      while !d < ngroups - 1 && !d < 3 && !t < 8 * runner.workers do
        t :=
          !t
          * (Array.length c.neg_opts.(!d) + Array.length c.rest_opts.(!d) + 1);
        incr d
      done;
      !d
    end
  in
  let prefixes =
    if frontier_depth = 0 then [ [] ]
    else begin
      (* -1 encodes "no option of this group"; canonical branch order
         (improving, none, rest) so task 0 is the sequential DFS's
         first dive. *)
      let acc = ref [] in
      let rec enum d prefix =
        if d = frontier_depth then acc := List.rev prefix :: !acc
        else begin
          Array.iter (fun j -> enum (d + 1) (j :: prefix)) c.neg_opts.(d);
          enum (d + 1) (-1 :: prefix);
          Array.iter (fun j -> enum (d + 1) (j :: prefix)) c.rest_opts.(d)
        end
      in
      enum 0 [];
      List.rev !acc
    end
  in
  let commit st =
    ignore (Atomic.fetch_and_add total_nodes (st.snodes - st.sflushed));
    ignore (Atomic.fetch_and_add total_pruned_bound st.spruned_bound);
    ignore (Atomic.fetch_and_add total_pruned_validity st.spruned_validity);
    ignore (Atomic.fetch_and_add total_incumbents st.sincumbents)
  in
  let run_prefix prefix () =
    let st =
      {
        x = Array.make p.nvars false;
        v = Array.copy c.init;
        snodes = 0;
        sflushed = 0;
        spruned_bound = 0;
        spruned_validity = 0;
        sincumbents = 0;
      }
    in
    let obj =
      List.fold_left
        (fun acc j ->
          if j < 0 then acc
          else begin
            st.x.(j) <- true;
            apply c st.v j;
            acc +. p.objective.(j)
          end)
        0.0 prefix
    in
    (try dfs st frontier_depth obj with Cancelled -> ());
    commit st
  in
  let status () =
    if Atomic.get limit_hit then Node_limit_reached else Optimal
  in
  let flush () =
    let nodes = Atomic.get total_nodes in
    let pruned_bound = Atomic.get total_pruned_bound in
    let pruned_validity = Atomic.get total_pruned_validity in
    let incumbents = Atomic.get total_incumbents in
    Obs.Metrics.Counter.incr m_solves;
    Obs.Metrics.Counter.incr ~by:nodes m_nodes;
    Obs.Metrics.Counter.incr ~by:pruned_bound m_pruned_bound;
    Obs.Metrics.Counter.incr ~by:pruned_validity m_pruned_validity;
    Obs.Metrics.Counter.incr ~by:incumbents m_incumbents;
    Obs.Metrics.Counter.incr ~by:(List.length prefixes) m_tasks;
    Obs.Span.add_attr span "nodes" (Obs.Json.Int nodes);
    Obs.Span.add_attr span "pruned_bound" (Obs.Json.Int pruned_bound);
    Obs.Span.add_attr span "pruned_validity" (Obs.Json.Int pruned_validity);
    Obs.Span.add_attr span "incumbents" (Obs.Json.Int incumbents);
    Obs.Span.add_attr span "workers" (Obs.Json.Int runner.workers);
    Obs.Span.add_attr span "tasks" (Obs.Json.Int (List.length prefixes));
    if Obs.Journal.enabled () then
      Obs.Journal.record ~kind:"binlp.solve"
        [
          ("nodes", Obs.Json.Int nodes);
          ("pruned_bound", Obs.Json.Int pruned_bound);
          ("pruned_validity", Obs.Json.Int pruned_validity);
          ("incumbents", Obs.Json.Int incumbents);
          ( "objective",
            match Atomic.get incumbent with
            | Some s -> Obs.Json.Float s.objective
            | None -> Obs.Json.Null );
          ("workers", Obs.Json.Int runner.workers);
          ("tasks", Obs.Json.Int (List.length prefixes));
          ( "status",
            Obs.Json.String
              (match status () with
              | Optimal -> "optimal"
              | Node_limit_reached -> "node_limit_reached") );
        ];
    match Atomic.get incumbent with
    | Some s -> Obs.Span.add_attr span "objective" (Obs.Json.Float s.objective)
    | None -> ()
  in
  Fun.protect ~finally:flush (fun () ->
      runner.run_batch (List.map run_prefix prefixes));
  {
    best = Atomic.get incumbent;
    status = status ();
    nodes = Atomic.get total_nodes;
  }

let brute_force ?(objective_terms = []) p =
  validate_terms p objective_terms;
  let groups = effective_groups p in
  let x = Array.make p.nvars false in
  let best = ref None in
  let rec go gs =
    match gs with
    | [] ->
        if List.for_all (check_constr x) p.constraints then begin
          let cand =
            {
              x = Array.copy x;
              objective = leaf_objective p.objective objective_terms x;
            }
          in
          match !best with
          | Some b when not (better_solution cand b) -> ()
          | Some _ | None -> best := Some cand
        end
    | g :: rest ->
        go rest;
        List.iter
          (fun j ->
            x.(j) <- true;
            go rest;
            x.(j) <- false)
          g
  in
  go groups;
  !best

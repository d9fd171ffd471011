module type DOMAIN = sig
  type config

  val name : string
  val base : config
  val dimension_names : string array
  val measure : config -> float array
  val feasible : config -> bool

  type group = {
    label : string;
    options : (string * (config -> config)) list;
  }

  val groups : group list
  val budgets : (int * float) array
end

module Make (D : DOMAIN) = struct
  type row = {
    group : string;
    option_label : string;
    deltas : float array;
  }

  type outcome = {
    base_costs : float array;
    rows : row list;
    selected : (string * string) list;
    config : D.config;
    predicted : float array;
    actual : float array;
  }

  let ndims = Array.length D.dimension_names

  let check_measurement costs =
    if Array.length costs <> ndims then
      failwith (D.name ^ ": measurement dimension mismatch");
    Array.iter
      (fun c -> if c <= 0.0 then failwith (D.name ^ ": non-positive base cost"))
      costs

  (* One flat option list; each carries its group index for SOS1. *)
  type opt = {
    o_group : int;
    o_labels : string * string;
    o_apply : D.config -> D.config;
    o_deltas : float array;     (* percent per dimension *)
    o_raw : float array;        (* raw deltas, for budgets *)
  }

  let build_model () =
    let base_costs = D.measure D.base in
    check_measurement base_costs;
    let opts = ref [] in
    List.iteri
      (fun gi (g : D.group) ->
        List.iter
          (fun (label, apply) ->
            let config = apply D.base in
            if D.feasible config then begin
              let costs = D.measure config in
              let o_deltas =
                Array.init ndims (fun d ->
                    100.0 *. (costs.(d) -. base_costs.(d)) /. base_costs.(d))
              in
              let o_raw =
                Array.init ndims (fun d -> costs.(d) -. base_costs.(d))
              in
              opts :=
                {
                  o_group = gi;
                  o_labels = (g.label, label);
                  o_apply = apply;
                  o_deltas;
                  o_raw;
                }
                :: !opts
            end)
          g.options)
      D.groups;
    (base_costs, List.rev !opts)

  let optimize ~weights =
    if Array.length weights <> ndims then
      invalid_arg (D.name ^ ": one weight per dimension required");
    let base_costs, opts = build_model () in
    let oarr = Array.of_list opts in
    let nvars = Array.length oarr in
    let objective =
      Array.map
        (fun o ->
          let s = ref 0.0 in
          Array.iteri (fun d w -> s := !s +. (w *. o.o_deltas.(d))) weights;
          !s)
        oarr
    in
    let groups =
      List.mapi
        (fun gi _ ->
          List.filter (fun j -> oarr.(j).o_group = gi) (List.init nvars Fun.id))
        D.groups
      |> List.filter (fun g -> List.length g >= 2)
    in
    let budget_constraints =
      Array.to_list D.budgets
      |> List.map (fun (dim, cap) ->
             Optim.Binlp.linear
               {
                 Optim.Binlp.coeffs =
                   List.init nvars (fun j -> (j, oarr.(j).o_raw.(dim)));
                 const = 0.0;
               }
               Optim.Binlp.Le
               (cap -. base_costs.(dim)))
    in
    let problem =
      { Optim.Binlp.nvars; objective; groups; constraints = budget_constraints }
    in
    let solution, _ = Stack.solve problem in
    let chosen =
      List.filter (fun j -> solution.Optim.Binlp.x.(j)) (List.init nvars Fun.id)
    in
    let config =
      List.fold_left (fun c j -> oarr.(j).o_apply c) D.base chosen
    in
    let predicted =
      Array.init ndims (fun d ->
          List.fold_left (fun acc j -> acc +. oarr.(j).o_deltas.(d)) 0.0 chosen)
    in
    let actual_costs = D.measure config in
    let actual =
      Array.init ndims (fun d ->
          100.0 *. (actual_costs.(d) -. base_costs.(d)) /. base_costs.(d))
    in
    {
      base_costs;
      rows =
        List.map
          (fun o ->
            { group = fst o.o_labels; option_label = snd o.o_labels; deltas = o.o_deltas })
          opts;
      selected = List.map (fun j -> oarr.(j).o_labels) chosen;
      config;
      predicted;
      actual;
    }
end

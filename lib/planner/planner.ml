(* Cost-based plan compiler.

   The engine's evaluation strategy used to be fixed: pick the variable
   with the cheapest single anchor, evaluate it with the unpruned NFA,
   repeat. This module replaces that with a small optimizer — per
   variable it enumerates every anchor candidate plus (where the RPE
   shape admits one) a bidirectional meet-in-the-middle plan, costs
   them with a per-backend model calibrated against the E9
   per-operator wall times, prunes every compiled automaton against
   the schema's edge rules ([Analysis.pruner]), and picks the
   cross-variable evaluation order by enumerating join orders. Every
   query is planned from scratch, so the plan is a function of the
   query and the store.

   Everything here is estimation-only: the single source of truth for
   result sets stays in [Eval_rpe], and every plan is a choice among
   equivalent evaluations, so a planner bug can cost time but never
   rows. *)

module Schema = Nepal_schema.Schema
module Time_constraint = Nepal_temporal.Time_constraint
module Rpe = Nepal_rpe.Rpe
module Anchor = Nepal_rpe.Anchor
module Predicate = Nepal_rpe.Predicate
module Analysis = Nepal_analysis.Analysis
module Backend_intf = Nepal_query.Backend_intf
module Eval_rpe = Nepal_query.Eval_rpe

let ( let* ) = Result.bind

type planner_input = {
  pi_var : string;
  pi_conn : Backend_intf.conn;
  pi_tc : Time_constraint.t;
  pi_norm : Rpe.norm;
  pi_lit_seed : bool;
  pi_join_vars : string list;
}

type var_decision = {
  vd_var : string;
  vd_strategy : Eval_rpe.strategy;
  vd_prune : Eval_rpe.pruner option;
  vd_variant : string;
  vd_est_cost : float;
  vd_est_rows : float;
  vd_desc : string;
  vd_alternatives : (string * float) list;
}

type exec_plan = {
  xp_order : var_decision list;
  xp_cost : float;
}

(* -- bidirectional decomposition ------------------------------------ *)

(* The body of the repetition must consume exactly one edge per
   iteration (an edge atom, or an alternation of edge atoms): that is
   what makes the two half-walks meet on a shared matched edge. *)
let edge_only schema = function
  | Rpe.N_atom a -> Rpe.atom_kind schema a = Some Schema.Edge_kind
  | Rpe.N_alt branches ->
      List.for_all
        (function
          | Rpe.N_atom a -> Rpe.atom_kind schema a = Some Schema.Edge_kind
          | _ -> false)
        branches
  | _ -> false

(* Meet-in-the-middle pays only when both halves start from a few
   seeds, so both endpoints must be pinned by an equality lookup: from a
   bare class one half walks from every instance of it. The plan is
   sound under every temporal form. Range validity is a union over runs
   of per-element presence intersections, and the join intersects the
   two halves' validities. Halves that consumed the shared edge under
   the same atom rebuild one run exactly. Halves that consumed it under
   two atoms give the intersection of both presences, which lies inside
   the run that uses either atom there (the body is an alternation, so
   any body atom may take any repetition), and [Eval_rpe.dedup_paths]'s
   union is unchanged. *)
let bidi_of schema norm =
  let pinned (a : Rpe.atom) = Predicate.equality_lookups a.Rpe.pred <> [] in
  let node a = Rpe.atom_kind schema a = Some Schema.Node_kind && pinned a in
  match norm with
  | Rpe.N_seq [ Rpe.N_atom l; Rpe.N_rep (body, m, n); Rpe.N_atom r ]
    when m >= 1 && n >= 2 && node l && node r && edge_only schema body ->
      let k1 = (n + 2) / 2 in
      let k2 = n + 1 - k1 in
      Some
        {
          Eval_rpe.bd_left = l;
          bd_right = r;
          bd_fwd = Rpe.N_seq [ Rpe.N_atom l; Rpe.N_rep (body, 1, k1) ];
          bd_bwd =
            Rpe.reverse (Rpe.N_seq [ Rpe.N_rep (body, 1, k2); Rpe.N_atom r ]);
          bd_min_length = Rpe.min_length norm;
        }
  | _ -> None

(* -- cost model ------------------------------------------------------ *)

(* Per-backend operator costs in rough microseconds, calibrated against
   the E9 per-operator wall times (EXPERIMENTS.md): a gremlin Select is
   an unindexed label scan (~2.8 ms measured), relational's hits the
   class-table index (~0.108 ms), native reads its hash tables
   directly. Only the ratios matter — plans are compared, not
   predicted. *)
type backend_costs = {
  bc_select : float;  (** fixed overhead per Select *)
  bc_extend : float;  (** fixed overhead per bulk Extend round *)
  bc_row : float;  (** marginal per-row cost *)
}

let costs_of conn =
  match Backend_intf.conn_name conn with
  | "gremlin" -> { bc_select = 2800.; bc_extend = 2800.; bc_row = 2.0 }
  | "relational" -> { bc_select = 108.; bc_extend = 300.; bc_row = 0.5 }
  | _ -> { bc_select = 14.; bc_extend = 20.; bc_row = 0.2 }

let root_node = Rpe.atom "Node"
let root_edge = Rpe.atom "Edge"

(* One plan's cardinality estimates: each (connection, atom) is asked of
   the backend once per [plan_query]. The anchor enumeration, the
   candidates' costs and the bidirectional shape ask about the same
   atoms again, and a Gremlin estimate counts the label's extent.
   Atoms compare physically: each is an atom of the query's own RPE or
   one of the two roots above. Nothing is kept across plans. *)
let memo_estimate () =
  let known = ref [] in
  fun conn atom ->
    match List.find_opt (fun (c, a, _) -> c == conn && a == atom) !known with
    | Some (_, _, e) -> e
    | None ->
        let e = Float.max 0. (Backend_intf.estimate_atom conn atom) in
        known := (conn, atom, e) :: !known;
        e

(* Frontier growth per walk round ~ sqrt of the average out-degree
   (frontier dedup and cycle pruning damp the raw branching factor),
   clamped to keep long walks from overflowing; the frontier itself is
   capped by the store's element count. *)
let growth_of estimate conn =
  let nodes = Float.max 1. (estimate conn root_node) in
  let edges = Float.max 1. (estimate conn root_edge) in
  let deg = Float.min 64. (Float.max 1. (edges /. nodes)) in
  (Float.sqrt deg, nodes +. edges)

(* Cost of extending [rows] seed records through [steps] walk rounds. *)
let walk_cost bc ~growth ~cap ~rows ~steps =
  let rec go i fr acc =
    if i > steps then acc
    else
      let fr = Float.min cap (fr *. growth) in
      go (i + 1) fr (acc +. bc.bc_extend +. (fr *. bc.bc_row))
  in
  go 1 (Float.max 1. rows) 0.

let norm_steps = function None -> 0 | Some n -> Rpe.max_length n

(* -- per-variable candidates ----------------------------------------- *)

type candidate = {
  cd_strategy : Eval_rpe.strategy;
  cd_cost : float;
  cd_rows : float;  (** estimated result pathways (anchor records) *)
  cd_desc : string;
}

let selection_desc (sel : Anchor.selection) =
  let anchors =
    List.map (fun (sp : Anchor.split) -> sp.Anchor.anchor.Rpe.cls)
      sel.Anchor.splits
  in
  Printf.sprintf "anchor ⟨%s⟩ %d split(s)"
    (String.concat " | " anchors)
    (List.length sel.Anchor.splits)

let selection_candidate estimate conn bc ~growth ~cap (sel : Anchor.selection) =
  let cost, rows =
    List.fold_left
      (fun (c, r) (sp : Anchor.split) ->
        let rows = estimate conn sp.Anchor.anchor in
        let walk n =
          walk_cost bc ~growth ~cap ~rows ~steps:(norm_steps n)
        in
        ( c +. bc.bc_select +. (rows *. bc.bc_row) +. walk sp.Anchor.before
          +. walk sp.Anchor.after,
          r +. rows ))
      (0., 0.) sel.Anchor.splits
  in
  {
    cd_strategy = Eval_rpe.Forced sel;
    cd_cost = cost;
    cd_rows = rows;
    cd_desc = selection_desc sel;
  }

let bidi_candidate estimate conn bc ~growth ~cap (bp : Eval_rpe.bidi_plan) =
  let lrows = estimate conn bp.Eval_rpe.bd_left in
  let rrows = estimate conn bp.Eval_rpe.bd_right in
  let walk rows n = walk_cost bc ~growth ~cap ~rows ~steps:(Rpe.max_length n) in
  let cost =
    (2. *. bc.bc_select)
    +. ((lrows +. rrows) *. bc.bc_row)
    +. walk lrows bp.Eval_rpe.bd_fwd
    +. walk rrows bp.Eval_rpe.bd_bwd
  in
  {
    cd_strategy = Eval_rpe.Bidi bp;
    cd_cost = cost;
    cd_rows = Float.min lrows rrows;
    cd_desc =
      Printf.sprintf "bidirectional ⟨%s⟩↔⟨%s⟩ halves %d+%d"
        bp.Eval_rpe.bd_left.Rpe.cls bp.Eval_rpe.bd_right.Rpe.cls
        (Rpe.max_length bp.Eval_rpe.bd_fwd)
        (Rpe.max_length bp.Eval_rpe.bd_bwd);
  }

(* All ways to evaluate one variable standalone (not seeded from a
   literal or a join), cheapest first. Deterministic: ties keep
   [Anchor.enumerate]'s order, so the legacy cheapest-anchor plan wins
   them. *)
let candidates estimate (growth, cap) (input : planner_input) =
  let conn = input.pi_conn in
  let schema = Backend_intf.conn_schema conn in
  let bc = costs_of conn in
  let anchored =
    Anchor.enumerate ~cost:(estimate conn) input.pi_norm
    |> List.map (selection_candidate estimate conn bc ~growth ~cap)
  in
  let bidi =
    match bidi_of schema input.pi_norm with
    | Some bp -> [ bidi_candidate estimate conn bc ~growth ~cap bp ]
    | None -> []
  in
  List.stable_sort
    (fun a b -> Float.compare a.cd_cost b.cd_cost)
    (anchored @ bidi)

let variant_of tc =
  match (tc : Time_constraint.t) with
  | Time_constraint.Snapshot -> "snapshot"
  | Time_constraint.At _ -> "timeslice"
  | Time_constraint.Range _ -> "range"

(* -- join ordering ---------------------------------------------------- *)

type slot = {
  sl_input : planner_input;
  sl_growth : float * float;  (** [growth_of] its connection *)
  sl_cands : candidate list;  (** cheapest first; [] = not anchorable *)
}

(* Cost of evaluating a slot seeded with [rows] records (literal pin
   or anchors imported from a join partner): no Select, one directional
   walk across the whole RPE. *)
let seeded_cost s ~rows =
  let growth, cap = s.sl_growth in
  walk_cost (costs_of s.sl_input.pi_conn) ~growth ~cap ~rows
    ~steps:(Rpe.max_length s.sl_input.pi_norm)

(* Cost and per-variable decisions of one evaluation order; an error
   naming the first variable that is neither seedable by then nor
   anchorable. *)
let cost_order slots order =
  let slot v = List.find (fun s -> s.sl_input.pi_var = v) slots in
  let rec go acc_cost acc_rows decided = function
    | [] -> Ok (acc_cost, List.rev decided)
    | v :: rest ->
        let s = slot v in
        let input = s.sl_input in
        let joined_earlier =
          List.filter
            (fun p -> List.mem_assoc p acc_rows)
            input.pi_join_vars
        in
        let choice =
          if input.pi_lit_seed then
            Some
              ( seeded_cost s ~rows:1.,
                1.,
                Eval_rpe.Auto,
                "literal-seeded",
                [] )
          else
            match joined_earlier with
            | p :: _ ->
                let rows = List.assoc p acc_rows in
                Some
                  ( seeded_cost s ~rows,
                    rows,
                    Eval_rpe.Auto,
                    Printf.sprintf "join-imported from %s" p,
                    [] )
            | [] -> (
                match s.sl_cands with
                | [] -> None
                | best :: others ->
                    Some
                      ( best.cd_cost,
                        best.cd_rows,
                        best.cd_strategy,
                        best.cd_desc,
                        List.map (fun c -> (c.cd_desc, c.cd_cost)) others ))
        in
        (match choice with
        | None ->
            Error
              (Printf.sprintf
                 "variable %S is not anchored and cannot import an anchor from a join"
                 v)
        | Some (cost, rows, strategy, desc, alts) ->
            go (acc_cost +. cost)
              ((v, rows) :: acc_rows)
              ((v, cost, rows, strategy, desc, alts) :: decided)
              rest)
  in
  go 0. [] [] order

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun p -> x :: p)
            (permutations (List.filter (fun y -> y <> x) l)))
        l

(* The greedy order (literal/join-seedable first, then cheapest
   anchor) — evaluated first so the optimizer must be strictly cheaper
   to deviate, which keeps result-row order stable on ties. When no
   order is feasible, its error names the first declared variable that
   no anchored or literal-seeded variable reaches through joins. *)
let legacy_order slots =
  let remaining = ref (List.map (fun s -> s.sl_input.pi_var) slots) in
  let done_ = ref [] in
  let order = ref [] in
  let anchor_cost v =
    match
      (List.find (fun s -> s.sl_input.pi_var = v) slots).sl_cands
    with
    | c :: _ -> c.cd_cost
    | [] -> infinity
  in
  while !remaining <> [] do
    let seedable =
      List.filter
        (fun v ->
          let s = List.find (fun s -> s.sl_input.pi_var = v) slots in
          s.sl_input.pi_lit_seed
          || List.exists
               (fun p -> List.mem p !done_)
               s.sl_input.pi_join_vars)
        !remaining
    in
    let pool = if seedable <> [] then seedable else !remaining in
    let pick =
      List.fold_left
        (fun best v ->
          match best with
          | None -> Some v
          | Some b -> if anchor_cost v < anchor_cost b then Some v else best)
        None pool
    in
    match pick with
    | None -> remaining := []
    | Some v ->
        order := v :: !order;
        done_ := v :: !done_;
        remaining := List.filter (fun x -> x <> v) !remaining
  done;
  List.rev !order

let best_order slots =
  let vars = List.map (fun s -> s.sl_input.pi_var) slots in
  let greedy = legacy_order slots in
  let others =
    if List.length vars <= 5 then
      List.filter (fun p -> p <> greedy) (permutations vars)
    else []
  in
  List.fold_left
    (fun best order ->
      match (best, cost_order slots order) with
      | Error _, (Ok _ as r) -> r
      | Ok (bc, _), (Ok (cost, _) as r) when cost < bc -> r
      | _ -> best)
    (cost_order slots greedy) others

(* -- entry point ------------------------------------------------------ *)

let plan_query inputs =
  let estimate = memo_estimate () in
  let slots =
    List.map
      (fun i ->
        let growth = growth_of estimate i.pi_conn in
        { sl_input = i; sl_growth = growth; sl_cands = candidates estimate growth i })
      inputs
  in
  let* total, decided = best_order slots in
  let decision (v, cost, rows, strategy, desc, alts) =
    let input = (List.find (fun s -> s.sl_input.pi_var = v) slots).sl_input in
    {
      vd_var = v;
      vd_strategy = strategy;
      vd_prune = Some (Analysis.pruner (Backend_intf.conn_schema input.pi_conn));
      vd_variant = variant_of input.pi_tc;
      vd_est_cost = cost;
      vd_est_rows = rows;
      vd_desc = desc;
      vd_alternatives = alts;
    }
  in
  Ok { xp_order = List.map decision decided; xp_cost = total }

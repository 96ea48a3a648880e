(* Cost-based plan compiler.

   The engine's evaluation strategy used to be fixed: pick the variable
   with the cheapest single anchor, evaluate it with the unpruned NFA,
   repeat. This module replaces that with a small optimizer — per
   variable it enumerates every anchor candidate plus (where the RPE
   shape admits one) a bidirectional meet-in-the-middle plan, costs
   them with a per-backend model calibrated against the E9
   per-operator wall times, prunes every compiled automaton against
   the schema's frontier tables, and picks the cross-variable
   evaluation order by enumerating join orders. Decisions are memoized
   in a bounded fingerprint-keyed cache.

   Everything here is estimation-only: the single source of truth for
   result sets stays in [Eval_rpe], and every plan is a choice among
   equivalent evaluations, so a planner bug can cost time but never
   rows. *)

module Intset = Nepal_util.Intset
module Metrics = Nepal_util.Metrics
module Schema = Nepal_schema.Schema
module Time_constraint = Nepal_temporal.Time_constraint
module Rpe = Nepal_rpe.Rpe
module Nfa = Nepal_rpe.Nfa
module Anchor = Nepal_rpe.Anchor
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
  xp_cache : [ `Hit | `Miss ];
  xp_cost : float;
}

let m_cache_hit = Metrics.counter "planner.cache_hit"
let m_cache_miss = Metrics.counter "planner.cache_miss"
let m_plans = Metrics.counter "planner.plans"

(* -- product-automaton pruning -------------------------------------- *)

(* The frontier abstract interpretation (lib/analysis) as an [Nfa.prune]
   oracle: a frontier is the set of schema states a conforming element
   sequence can be in; an empty step means no conforming store contains
   an element able to take that transition. *)
let oracle ft : Intset.t Nfa.oracle =
  {
    Nfa.o_start = Analysis.Frontier.start;
    o_step_match =
      (fun f a ~is_node ->
        let f' = Analysis.Frontier.step_atom ft f a ~is_node in
        if Intset.is_empty f' then None else Some f');
    o_step_skip =
      (fun f ~is_node ->
        let f' = Analysis.Frontier.step_skip ft f ~is_node in
        if Intset.is_empty f' then None else Some f');
    o_join = Intset.union;
    o_equal = Intset.equal;
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

let bidi_of schema ~tc norm =
  match (tc : Time_constraint.t) with
  | Time_constraint.Range _ ->
      (* Range validity unions presence over runs of the whole pathway;
         per-half intersection cannot reproduce it. *)
      None
  | Time_constraint.Snapshot | Time_constraint.At _ -> (
      match norm with
      | Rpe.N_seq [ Rpe.N_atom l; Rpe.N_rep (body, m, n); Rpe.N_atom r ]
        when m >= 1 && n >= 2
             && Rpe.atom_kind schema l = Some Schema.Node_kind
             && Rpe.atom_kind schema r = Some Schema.Node_kind
             && edge_only schema body ->
          let k1 = (n + 2) / 2 in
          let k2 = n + 1 - k1 in
          Some
            {
              Eval_rpe.bd_left = l;
              bd_right = r;
              bd_fwd = Rpe.N_seq [ Rpe.N_atom l; Rpe.N_rep (body, 1, k1) ];
              bd_bwd =
                Rpe.reverse
                  (Rpe.N_seq [ Rpe.N_rep (body, 1, k2); Rpe.N_atom r ]);
              bd_min_length = Rpe.min_length norm;
            }
      | _ -> None)

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

let estimate conn atom = Float.max 0. (Backend_intf.estimate_atom conn atom)

(* Frontier growth per walk round ~ sqrt of the average out-degree
   (frontier dedup and cycle pruning damp the raw branching factor),
   clamped to keep long walks from overflowing; the frontier itself is
   capped by the store's element count. *)
let growth_of conn =
  let nodes = Float.max 1. (estimate conn (Rpe.atom "Node")) in
  let edges = Float.max 1. (estimate conn (Rpe.atom "Edge")) in
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

(* The structural identity of a choice, as stored in the plan cache:
   which [Anchor.enumerate] index won (the enumeration is deterministic
   for a given norm structure), the bidirectional shape, or the
   engine's own seeded evaluation. Atoms and predicates are never
   cached — same-fingerprint queries can differ in literals. *)
type cache_decision = C_anchor of int | C_bidi | C_auto

type candidate = {
  cd_strategy : Eval_rpe.strategy;
  cd_cost : float;
  cd_rows : float;  (** estimated result pathways (anchor records) *)
  cd_desc : string;
  cd_id : cache_decision;
}

let selection_desc (sel : Anchor.selection) =
  let anchors =
    List.map (fun (sp : Anchor.split) -> sp.Anchor.anchor.Rpe.cls)
      sel.Anchor.splits
  in
  Printf.sprintf "anchor ⟨%s⟩ %d split(s)"
    (String.concat " | " anchors)
    (List.length sel.Anchor.splits)

let selection_candidate conn bc ~growth ~cap idx (sel : Anchor.selection) =
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
    cd_id = C_anchor idx;
  }

let bidi_candidate conn bc ~growth ~cap (bp : Eval_rpe.bidi_plan) =
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
    cd_id = C_bidi;
  }

(* All ways to evaluate one variable standalone (not seeded from a
   literal or a join), cheapest first. Deterministic: ties keep
   [Anchor.enumerate]'s order, so the legacy cheapest-anchor plan wins
   them. *)
let candidates (input : planner_input) =
  let conn = input.pi_conn in
  let schema = Backend_intf.conn_schema conn in
  let bc = costs_of conn in
  let growth, cap = growth_of conn in
  let anchored =
    Anchor.enumerate ~cost:(estimate conn) input.pi_norm
    |> List.mapi (selection_candidate conn bc ~growth ~cap)
  in
  let bidi =
    match bidi_of schema ~tc:input.pi_tc input.pi_norm with
    | Some bp -> [ bidi_candidate conn bc ~growth ~cap bp ]
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

(* Cost of evaluating [input] seeded with [rows] records (literal pin
   or anchors imported from a join partner): no Select, one directional
   walk across the whole RPE. *)
let seeded_cost (input : planner_input) ~rows =
  let bc = costs_of input.pi_conn in
  let growth, cap = growth_of input.pi_conn in
  walk_cost bc ~growth ~cap ~rows
    ~steps:(Rpe.max_length input.pi_norm)

type slot = {
  sl_input : planner_input;
  sl_cands : candidate list;  (** cheapest first; [] = not anchorable *)
}

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
              ( seeded_cost input ~rows:1.,
                1.,
                Eval_rpe.Auto,
                "literal-seeded",
                [],
                C_auto )
          else
            match joined_earlier with
            | p :: _ ->
                let rows = List.assoc p acc_rows in
                Some
                  ( seeded_cost input ~rows,
                    rows,
                    Eval_rpe.Auto,
                    Printf.sprintf "join-imported from %s" p,
                    [],
                    C_auto )
            | [] -> (
                match s.sl_cands with
                | [] -> None
                | best :: others ->
                    Some
                      ( best.cd_cost,
                        best.cd_rows,
                        best.cd_strategy,
                        best.cd_desc,
                        List.map (fun c -> (c.cd_desc, c.cd_cost)) others,
                        best.cd_id ))
        in
        (match choice with
        | None ->
            Error
              (Printf.sprintf
                 "variable %S is not anchored and cannot import an anchor from a join"
                 v)
        | Some (cost, rows, strategy, desc, alts, id) ->
            go (acc_cost +. cost)
              ((v, rows) :: acc_rows)
              ((v, cost, rows, strategy, desc, alts, id) :: decided)
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

(* -- plan cache ------------------------------------------------------- *)

(* A cached plan stores only structural decisions ([cache_decision]) —
   the order and, for anchored variables, which enumeration index (or
   the bidirectional shape) won. Strategies are rebuilt from the
   incoming inputs on every hit and only the choice is reused. *)
type cache_entry = {
  ce_versions : (string * int) list;  (** var -> conn version at plan time *)
  ce_order : string list;
  ce_decisions : (string * cache_decision) list;
  ce_alts : (string * (string * float) list) list;
      (** rejected-alternative display lines (stale costs are fine) *)
}

let cache : (string, cache_entry) Hashtbl.t = Hashtbl.create 64
let cache_fifo : string Queue.t = Queue.create ()
let cache_capacity = 512
let cache_mutex = Mutex.create ()

(* Schema identity token: physical equality, same lifetime as the
   [Analysis.tables_of] memo — a re-created schema gets a fresh token
   and therefore a fresh cache slot. *)
let schema_tokens : (Schema.t * int) list ref = ref []

let schema_token s =
  match List.find_opt (fun (s', _) -> s' == s) !schema_tokens with
  | Some (_, i) -> i
  | None ->
      let i = List.length !schema_tokens in
      schema_tokens := (s, i) :: !schema_tokens;
      i

let cache_key fingerprint (inputs : planner_input list) =
  let var_part i =
    Printf.sprintf "%s=%s/%d/%s" i.pi_var
      (Backend_intf.conn_name i.pi_conn)
      (schema_token (Backend_intf.conn_schema i.pi_conn))
      (variant_of i.pi_tc)
  in
  String.concat "|" (fingerprint :: List.map var_part inputs)

let locked f =
  Mutex.lock cache_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mutex) f

(* The pruning fixpoint costs ~1ms — noticeable against sub-millisecond
   native walks — but its verdict depends only on the automaton's
   class-level structure ({!Nfa.signature}), never on predicate
   literals. Masks are therefore memoized per (schema, direction,
   signature): the fixpoint runs once per plan shape, and every
   subsequent execution replays the verdict onto its own automaton
   (whose atoms carry the current query's predicates). *)
let mask_cache : (string, Nfa.prune_mask) Hashtbl.t = Hashtbl.create 64
let mask_fifo : string Queue.t = Queue.create ()
let mask_capacity = 256

let pruner_of schema : Eval_rpe.pruner =
 fun ~dir nfa ->
  let d =
    match dir with Backend_intf.Fwd -> `Fwd | Backend_intf.Bwd -> `Bwd
  in
  let key =
    Printf.sprintf "%d/%c/%s" (schema_token schema)
      (match d with `Fwd -> 'f' | `Bwd -> 'b')
      (Nfa.signature nfa)
  in
  let mask =
    match locked (fun () -> Hashtbl.find_opt mask_cache key) with
    | Some m -> m
    | None ->
        let m = Nfa.prune_mask (oracle (Analysis.Frontier.get schema ~dir:d)) nfa in
        locked (fun () ->
            if not (Hashtbl.mem mask_cache key) then begin
              Hashtbl.replace mask_cache key m;
              Queue.push key mask_fifo;
              if Queue.length mask_fifo > mask_capacity then
                Hashtbl.remove mask_cache (Queue.pop mask_fifo)
            end);
        m
  in
  Nfa.apply_mask nfa mask

let cache_clear () =
  locked (fun () ->
      Hashtbl.reset cache;
      Queue.clear cache_fifo;
      Hashtbl.reset mask_cache;
      Queue.clear mask_fifo)

let () = Metrics.on_reset cache_clear

let cache_stats () =
  locked (fun () ->
      ( Hashtbl.length cache,
        Metrics.counter_value m_cache_hit,
        Metrics.counter_value m_cache_miss ))

let cache_store key entry =
  locked (fun () ->
      (* Stale entries (version mismatch) are overwritten in place;
         only genuinely new keys join the eviction queue. *)
      if not (Hashtbl.mem cache key) then begin
        Queue.push key cache_fifo;
        while Queue.length cache_fifo > cache_capacity do
          Hashtbl.remove cache (Queue.pop cache_fifo)
        done
      end;
      Hashtbl.replace cache key entry)

let cache_find key = locked (fun () -> Hashtbl.find_opt cache key)

(* -- plan construction ------------------------------------------------ *)

let decision_of_choice input (cost, rows, strategy, desc, alts) =
  let schema = Backend_intf.conn_schema input.pi_conn in
  {
    vd_var = input.pi_var;
    vd_strategy = strategy;
    vd_prune = Some (pruner_of schema);
    vd_variant = variant_of input.pi_tc;
    vd_est_cost = cost;
    vd_est_rows = rows;
    vd_desc = desc;
    vd_alternatives = alts;
  }

let fresh_plan inputs =
  let slots =
    List.map (fun i -> { sl_input = i; sl_cands = candidates i }) inputs
  in
  match best_order slots with
  | Error _ as e -> e
  | Ok (total, decided) ->
      let order =
        List.map
          (fun (v, cost, rows, strategy, desc, alts, _) ->
            let input =
              (List.find (fun s -> s.sl_input.pi_var = v) slots)
                .sl_input
            in
            decision_of_choice input (cost, rows, strategy, desc, alts))
          decided
      in
      Ok ({ xp_order = order; xp_cache = `Miss; xp_cost = total }, decided)

let entry_of inputs decided =
  {
    ce_versions =
      List.map
        (fun i ->
          (i.pi_var, Backend_intf.conn_version i.pi_conn))
        inputs;
    ce_order = List.map (fun (v, _, _, _, _, _, _) -> v) decided;
    ce_decisions = List.map (fun (v, _, _, _, _, _, id) -> (v, id)) decided;
    ce_alts = List.map (fun (v, _, _, _, _, alts, _) -> (v, alts)) decided;
  }

(* Rebuild an exec_plan from a cached entry against THIS query's inputs
   (fresh atoms, fresh estimates, fresh prune closures). [None] when
   the entry no longer applies — treat as a miss. *)
let replay_plan inputs entry =
  let input_of v = List.find_opt (fun i -> i.pi_var = v) inputs in
  let versions_ok =
    List.for_all
      (fun (v, ver) ->
        match input_of v with
        | Some i -> Backend_intf.conn_version i.pi_conn = ver
        | None -> false)
      entry.ce_versions
    && List.length entry.ce_versions = List.length inputs
  in
  if not versions_ok then None
  else
    let rec go acc_cost acc_rows decided = function
      | [] -> Some (acc_cost, List.rev decided)
      | v :: rest -> (
          match input_of v with
          | None -> None
          | Some input ->
              let conn = input.pi_conn in
              let bc = costs_of conn in
              let growth, cap = growth_of conn in
              let joined_earlier =
                List.filter
                  (fun p -> List.mem_assoc p acc_rows)
                  input.pi_join_vars
              in
              let alts =
                match List.assoc_opt v entry.ce_alts with
                | Some a -> a
                | None -> []
              in
              let choice =
                if input.pi_lit_seed then
                  Some
                    (seeded_cost input ~rows:1., 1., Eval_rpe.Auto,
                     "literal-seeded", [])
                else
                  match joined_earlier with
                  | p :: _ ->
                      let rows = List.assoc p acc_rows in
                      Some
                        ( seeded_cost input ~rows,
                          rows,
                          Eval_rpe.Auto,
                          Printf.sprintf "join-imported from %s" p,
                          [] )
                  | [] -> (
                      match List.assoc_opt v entry.ce_decisions with
                      | Some (C_anchor n) -> (
                          let sels =
                            Anchor.enumerate ~cost:(estimate conn)
                              input.pi_norm
                          in
                          let rec nth k = function
                            | [] -> None
                            | s :: rest ->
                                if k = 0 then Some s else nth (k - 1) rest
                          in
                          match nth n sels with
                          | None -> None
                          | Some sel ->
                              let c =
                                selection_candidate conn bc ~growth ~cap n sel
                              in
                              Some
                                ( c.cd_cost, c.cd_rows, c.cd_strategy,
                                  c.cd_desc, alts ))
                      | Some C_bidi -> (
                          match
                            bidi_of
                              (Backend_intf.conn_schema conn)
                              ~tc:input.pi_tc input.pi_norm
                          with
                          | None -> None
                          | Some bp ->
                              let c = bidi_candidate conn bc ~growth ~cap bp in
                              Some
                                ( c.cd_cost, c.cd_rows, c.cd_strategy,
                                  c.cd_desc, alts ))
                      | Some C_auto | None -> None)
              in
              (match choice with
              | None -> None
              | Some (cost, rows, strategy, desc, a) ->
                  go (acc_cost +. cost)
                    ((v, rows) :: acc_rows)
                    (decision_of_choice input (cost, rows, strategy, desc, a)
                     :: decided)
                    rest))
    in
    match go 0. [] [] entry.ce_order with
    | None -> None
    | Some (total, order) ->
        Some { xp_order = order; xp_cache = `Hit; xp_cost = total }

(* -- entry point ------------------------------------------------------ *)

let plan_query ~fingerprint inputs =
  let key = cache_key fingerprint inputs in
  let cached =
    match cache_find key with
    | Some entry -> replay_plan inputs entry
    | None -> None
  in
  match cached with
  | Some ep ->
      Metrics.incr m_cache_hit;
      Ok ep
  | None ->
      Metrics.incr m_cache_miss;
      let* ep, decided = fresh_plan inputs in
      Metrics.incr m_plans;
      cache_store key (entry_of inputs decided);
      Ok ep

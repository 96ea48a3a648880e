(* Schema-aware static analysis of Nepal queries (pre-execution).

   The analyzer mirrors the engine's validation pipeline — label
   resolution, predicate typing, anchor selection, join classification —
   and extends it with decisions the engine never makes: schema-graph
   reachability between consecutive RPE steps (provable emptiness, dead
   and duplicate union branches), temporal-window intersection, and
   cost lints. Everything here works from the catalog alone; no check
   ever touches backend data, so `Strict mode can reject a query with
   zero backend round-trips.

   Satisfiability has one abstract interpreter, shared with the
   planner: the pattern's automaton ({!Nepal_rpe.Nfa}) runs in product
   with a frontier of "where could the pathway be" class states — [N c]
   (last element is a node of concrete class [c]) and [E (c, e)] (last
   element is an edge of concrete class [e] entered from source class
   [c]) — one element at a time, so node-to-node and edge-to-edge
   junctions take the automaton's skip transition over one unmatched
   element. The verdict ({!Nepal_rpe.Nfa.prune_mask}: per transition
   live, blocked or unused, plus the frontier at the accept state) is
   memoized per schema, direction and automaton shape; the planner
   replays it to prune evaluation automata ({!pruner}), the analyzer
   reads NPL010, NPL011 and the end classes off it. Predicates are
   ignored (class-level abstraction), which keeps the analysis sound: a
   pattern reported empty is empty for every store conforming to the
   schema. *)

module Schema = Nepal_schema.Schema
module Ftype = Nepal_schema.Ftype
module Value = Nepal_schema.Value
module Rpe = Nepal_rpe.Rpe
module Predicate = Nepal_rpe.Predicate
module Anchor = Nepal_rpe.Anchor
module Span = Nepal_rpe.Span
module Interval = Nepal_temporal.Interval
module Interval_set = Nepal_temporal.Interval_set
module Intset = Nepal_util.Intset
module Strset = Nepal_util.Strset
module Metrics = Nepal_util.Metrics
module Nfa = Nepal_rpe.Nfa
module Backend_intf = Nepal_query.Backend_intf
module Eval_rpe = Nepal_query.Eval_rpe
module Q = Nepal_query.Query_ast

(* -- tunables -------------------------------------------------------- *)

let high_rep_threshold = 8
(* Repetition upper bounds at or above this trigger NPL015: frontier
   expansion is exponential in practice over high-fanout edge classes
   (the Table-1 families top out at {1,6}). *)

let expensive_anchor_threshold = 1000.
(* Estimated anchor cardinality at or above this triggers NPL019 (only
   when the caller supplies a cost function, e.g. a live backend). *)

let max_unrolled_atoms = 512
(* Satisfiability compiles the whole pattern into an automaton whose
   repetitions are unrolled, one copy per iteration; a pattern with more
   atom copies than this is assumed satisfiable (no NPL010/NPL011,
   unconstrained end classes) rather than compiled. The Table-1
   families unroll to at most 8. *)

let verdict_capacity = 256
(* Entries in the shared verdict memo (FIFO eviction): one per schema,
   direction and automaton shape. *)

(* -- "did you mean" suggestions -------------------------------------- *)

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = Array.init (lb + 1) Fun.id in
    let cur = Array.make (lb + 1) 0 in
    for i = 1 to la do
      cur.(0) <- i;
      for j = 1 to lb do
        let cost =
          if Char.lowercase_ascii a.[i - 1] = Char.lowercase_ascii b.[j - 1]
          then 0
          else 1
        in
        cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

let suggest candidates name =
  let cap = max 1 (min 3 ((String.length name + 2) / 3)) in
  let best =
    List.fold_left
      (fun best c ->
        let d = levenshtein name c in
        if d > cap || d >= String.length c then best
        else
          match best with
          | Some (bd, _) when bd <= d -> best
          | _ -> Some (d, c))
      None candidates
  in
  match best with
  | Some (_, c) -> Printf.sprintf " — did you mean %S?" c
  | None -> ""

(* -- schema reachability tables -------------------------------------- *)

type tables = {
  t_id : int;  (** distinct per build: the verdict memo's schema key *)
  t_nodes : string array;  (** concrete node classes *)
  t_edges : string array;  (** concrete edge classes *)
  t_node_idx : (string, int) Hashtbl.t;
  t_edge_idx : (string, int) Hashtbl.t;
  t_succ : Intset.t array array;
      (** [t_succ.(e).(a)]: node indices [b] with [edge_allowed e a b] *)
  t_pred : Intset.t array array;
      (** transpose: [t_pred.(e).(b)]: node indices [a] with
          [edge_allowed e a b] — backward walks *)
}

let table_ids = Atomic.make 0

let build_tables schema =
  let nodes = Array.of_list (Schema.concrete_subclasses schema "Node") in
  let edges = Array.of_list (Schema.concrete_subclasses schema "Edge") in
  let node_idx = Hashtbl.create 64 and edge_idx = Hashtbl.create 16 in
  Array.iteri (fun i c -> Hashtbl.replace node_idx c i) nodes;
  Array.iteri (fun i c -> Hashtbl.replace edge_idx c i) edges;
  let succ =
    Array.map
      (fun e ->
        Array.map
          (fun a ->
            let s = ref Intset.empty in
            Array.iteri
              (fun bi b ->
                if Schema.edge_allowed schema ~edge:e ~src:a ~dst:b then
                  s := Intset.add bi !s)
              nodes;
            !s)
          nodes)
      edges
  in
  let nn = Array.length nodes in
  let pred =
    Array.map
      (fun per_src ->
        Array.init nn (fun bi ->
            let s = ref Intset.empty in
            Array.iteri
              (fun ai dsts -> if Intset.mem bi dsts then s := Intset.add ai !s)
              per_src;
            !s))
      succ
  in
  {
    t_id = Atomic.fetch_and_add table_ids 1;
    t_nodes = nodes;
    t_edges = edges;
    t_node_idx = node_idx;
    t_edge_idx = edge_idx;
    t_succ = succ;
    t_pred = pred;
  }

(* The analyzer runs on every query at the default [`Warn] mode, so the
   O(|E|·|N|²) table build is memoized per schema value (physical
   equality — schemas are immutable and long-lived). Concurrent sessions
   (the nepal server) analyze on worker domains, so this memo and the
   verdict memo below share one mutex; the build itself runs outside
   it, and a racing duplicate build is discarded (the first one's
   [t_id] may already key verdicts). *)
let lock = Mutex.create ()
let table_cache : (Schema.t * tables) list ref = ref []

let tables_of schema =
  match Mutex.protect lock (fun () -> List.assq_opt schema !table_cache) with
  | Some t -> t
  | None ->
      let t = build_tables schema in
      Mutex.protect lock (fun () ->
          match List.assq_opt schema !table_cache with
          | Some first -> first
          | None ->
              table_cache := (schema, t) :: List.filteri (fun i _ -> i < 7) !table_cache;
              t)

(* -- frontier states -------------------------------------------------

   Encoded as ints in an [Intset]: [start_state] before any element has
   matched; [a] for "last element is a node of class index [a]";
   [nn + a * ne + e] for "last element is an edge of class index [e]
   entered from source class index [a]" (in walk order: its real dst
   when walking backward). Edge states are only created when the
   direction's successor set is non-empty, so every edge state can
   complete to a pathway (pathways end on a node — the implicit
   endpoint of a trailing edge atom). *)

let start_state = -1

let rec first_span_norm = function
  | Rpe.N_atom a -> a.Rpe.span
  | Rpe.N_seq (r :: _) | Rpe.N_alt (r :: _) -> first_span_norm r
  | Rpe.N_rep (r, _, _) -> first_span_norm r
  | Rpe.N_seq [] | Rpe.N_alt [] -> Span.dummy

let rec first_span_rpe = function
  | Rpe.Atom a -> a.Rpe.span
  | Rpe.Seq (x, _) | Rpe.Alt (x, _) | Rpe.Rep (x, _, _) -> first_span_rpe x

(* Possible node classes at the end of a frontier's pathways. *)
let frontier_node_classes tb fr =
  let nn = Array.length tb.t_nodes and ne = Array.length tb.t_edges in
  Intset.fold
    (fun st acc ->
      if st = start_state then acc
      else if st < nn then Strset.add tb.t_nodes.(st) acc
      else
        let k = st - nn in
        let a = k / ne and e = k mod ne in
        Intset.fold
          (fun b acc -> Strset.add tb.t_nodes.(b) acc)
          tb.t_succ.(e).(a) acc)
    fr Strset.empty

(* The abstract half of the product automaton: direction-aware
   (backward walks use the transposed tables), one element at a time.
   Elements strictly alternate node/edge, so a node element is never
   consumable from a node state, nor an edge element from an edge
   state: those steps are empty, which is what blocks the eps half of a
   same-kind junction and leaves its skip half. Sound for any store
   that enforces [Schema.edge_allowed] on insertion (all Nepal stores
   do): an empty step proves no conforming data can take the
   transition. *)
module Frontier = struct
  type t = { f_schema : Schema.t; f_tb : tables; f_rev : bool }

  let start = Intset.singleton start_state

  let succ ft e a = if ft.f_rev then ft.f_tb.t_pred.(e).(a) else ft.f_tb.t_succ.(e).(a)

  (* The indices of [cls]'s concrete classes in a class index
     ([t_node_idx] or [t_edge_idx]). *)
  let indices idx schema cls =
    List.filter_map (Hashtbl.find_opt idx) (Schema.concrete_subclasses schema cls)

  let step_node ft fr cs =
    let nn = Array.length ft.f_tb.t_nodes and ne = Array.length ft.f_tb.t_edges in
    let out = ref Intset.empty in
    Intset.iter
      (fun st ->
        if st = start_state then List.iter (fun c -> out := Intset.add c !out) cs
        else if st < nn then () (* node after node: elements alternate *)
        else begin
          let k = st - nn in
          let a = k / ne and e = k mod ne in
          List.iter
            (fun c -> if Intset.mem c (succ ft e a) then out := Intset.add c !out)
            cs
        end)
      fr;
    !out

  let step_edge ft fr es =
    let nn = Array.length ft.f_tb.t_nodes and ne = Array.length ft.f_tb.t_edges in
    let out = ref Intset.empty in
    let from_src a =
      List.iter
        (fun e ->
          if not (Intset.is_empty (succ ft e a)) then
            out := Intset.add (nn + (a * ne) + e) !out)
        es
    in
    Intset.iter
      (fun st ->
        if st = start_state then
          (* implicit source node of any class — a pathway may open on
             an edge element's endpoint *)
          for a = 0 to nn - 1 do
            from_src a
          done
        else if st < nn then from_src st
        else () (* edge after edge: elements alternate *))
      fr;
    !out

  let step_skip ft fr ~is_node =
    if is_node then step_node ft fr (List.init (Array.length ft.f_tb.t_nodes) Fun.id)
    else step_edge ft fr (List.init (Array.length ft.f_tb.t_edges) Fun.id)

  let step_atom ft fr (a : Rpe.atom) ~is_node =
    match Schema.kind_of ft.f_schema a.Rpe.cls with
    | Some Schema.Node_kind ->
        if is_node then step_node ft fr (indices ft.f_tb.t_node_idx ft.f_schema a.Rpe.cls)
        else Intset.empty
    | Some Schema.Edge_kind ->
        if is_node then Intset.empty
        else step_edge ft fr (indices ft.f_tb.t_edge_idx ft.f_schema a.Rpe.cls)
    | None ->
        (* Unresolved class (cannot happen on validated RPEs): stay
           sound by treating the match as an unconstrained skip. *)
        step_skip ft fr ~is_node

  let oracle ft : Intset.t Nfa.oracle =
    let nonempty f = if Intset.is_empty f then None else Some f in
    {
      Nfa.o_start = start;
      o_step_match = (fun f a ~is_node -> nonempty (step_atom ft f a ~is_node));
      o_step_skip = (fun f ~is_node -> nonempty (step_skip ft f ~is_node));
      o_join = Intset.union;
      o_equal = Intset.equal;
    }
end

(* -- the verdict memo ------------------------------------------------

   The product fixpoint is far costlier than replaying its verdict, and
   the verdict depends only on the automaton's class-level structure
   ({!Nfa.signature}), never on predicate literals. Verdicts are
   therefore memoized per (schema tables, direction, signature) — one
   memo for the analyzer and the planner — and every query replays the
   verdict onto its own automaton. A re-created schema gets fresh
   tables, hence fresh keys; its stale entries age out of the FIFO. *)

let verdicts : (int * bool * string, Intset.t Nfa.prune_mask) Hashtbl.t =
  Hashtbl.create 64

let verdict_fifo : (int * bool * string) Queue.t = Queue.create ()

let verdict schema ~rev nfa =
  let tb = tables_of schema in
  let key = (tb.t_id, rev, Nfa.signature nfa) in
  match Mutex.protect lock (fun () -> Hashtbl.find_opt verdicts key) with
  | Some m -> m
  | None ->
      let ft = { Frontier.f_schema = schema; f_tb = tb; f_rev = rev } in
      let m = Nfa.prune_mask (Frontier.oracle ft) nfa in
      Mutex.protect lock (fun () ->
          if not (Hashtbl.mem verdicts key) then begin
            Hashtbl.replace verdicts key m;
            Queue.push key verdict_fifo;
            if Queue.length verdict_fifo > verdict_capacity then
              Hashtbl.remove verdicts (Queue.pop verdict_fifo)
          end);
      m

let () =
  Metrics.on_reset (fun () ->
      Mutex.protect lock (fun () ->
          Hashtbl.reset verdicts;
          Queue.clear verdict_fifo))

let pruner schema : Eval_rpe.pruner =
 fun ~dir nfa ->
  let rev = match dir with Backend_intf.Fwd -> false | Backend_intf.Bwd -> true in
  Nfa.apply_mask nfa (verdict schema ~rev nfa)

let rec leading_atoms = function
  | Rpe.N_atom a -> [ a ]
  | Rpe.N_seq [] -> []
  | Rpe.N_seq (r :: rest) ->
      leading_atoms r
      @ (if Rpe.min_length r = 0 then leading_atoms (Rpe.N_seq rest) else [])
  | Rpe.N_alt rs -> List.concat_map leading_atoms rs
  | Rpe.N_rep (r, _, _) -> leading_atoms r

(* Possible node classes at the start of a satisfying pathway — an
   over-approximation used by Select/filter field checks; [None] when
   the pattern can match the empty pathway, whose endpoints are
   arbitrary. *)
let start_node_classes schema tb norm =
  if Rpe.min_length norm = 0 then None
  else
    Some
      (List.fold_left
         (fun acc (a : Rpe.atom) ->
           match Schema.kind_of schema a.Rpe.cls with
           | Some Schema.Node_kind ->
               List.fold_left
                 (fun acc i -> Strset.add tb.t_nodes.(i) acc)
                 acc
                 (Frontier.indices tb.t_node_idx schema a.Rpe.cls)
           | Some Schema.Edge_kind ->
               (* implicit source endpoint of a leading edge atom *)
               List.fold_left
                 (fun acc e ->
                   let acc = ref acc in
                   Array.iteri
                     (fun ai _ ->
                       if not (Intset.is_empty tb.t_succ.(e).(ai)) then
                         acc := Strset.add tb.t_nodes.(ai) !acc)
                     tb.t_nodes;
                   !acc)
                 acc
                 (Frontier.indices tb.t_edge_idx schema a.Rpe.cls)
           | None -> acc)
         Strset.empty (leading_atoms norm))

(* -- per-atom validation: NPL001..NPL005 ------------------------------ *)

let fields_of_safe schema cls =
  match Schema.kind_of schema cls with
  | None -> []
  | Some _ -> ( try Schema.fields_of schema cls with Not_found -> [])

let check_pred ~schema ~(add : ?span:Span.t -> Diagnostic.severity -> string -> string -> unit) (a : Rpe.atom) =
  let cls = a.Rpe.cls in
  let rec go = function
    | Predicate.True -> ()
    | Predicate.And (x, y) | Predicate.Or (x, y) ->
        go x;
        go y
    | Predicate.Not x -> go x
    | Predicate.Cmp (path, _, lit) -> (
        match path with
        | [] ->
            add ~span:a.Rpe.span Diagnostic.Error "NPL002"
              (Printf.sprintf "empty field path in predicate of %S" cls)
        | head :: rest -> (
            match Schema.field_type schema cls head with
            | None ->
                let fields = List.map fst (fields_of_safe schema cls) in
                add ~span:a.Rpe.span Diagnostic.Error "NPL002"
                  (Printf.sprintf "class %S has no field %S%s" cls head
                     (suggest fields head))
            | Some ft -> (
                match Predicate.path_type schema ft rest with
                | Error e ->
                    add ~span:a.Rpe.span Diagnostic.Error "NPL004"
                      (Printf.sprintf "field path %s on class %S: %s"
                         (String.concat "." path) cls e)
                | Ok leaf -> (
                    match Predicate.coerce_literal leaf lit with
                    | Error e ->
                        add ~span:a.Rpe.span Diagnostic.Error "NPL003"
                          (Printf.sprintf
                             "literal for field %s of class %S does not fit \
                              type %s: %s"
                             (String.concat "." path) cls (Ftype.to_string leaf)
                             e)
                    | Ok lit' ->
                        if not (Predicate.literal_compatible leaf lit') then
                          add ~span:a.Rpe.span Diagnostic.Error "NPL003"
                            (Printf.sprintf
                               "field %s of class %S has type %s, incompatible \
                                with %s"
                               (String.concat "." path) cls
                               (Ftype.to_string leaf) (Value.to_string lit'))))))
  in
  go a.Rpe.pred

let check_atoms ~schema ~(add : ?span:Span.t -> Diagnostic.severity -> string -> string -> unit) rpe =
  let resolved = ref true in
  let rec go = function
    | Rpe.Atom a -> (
        match Schema.kind_of schema a.Rpe.cls with
        | None ->
            resolved := false;
            (* the did-you-mean candidates, built only for a miss *)
            let concepts =
              List.filter
                (fun c -> c <> "Any")
                (Schema.node_classes schema @ Schema.edge_classes schema)
            in
            add ~span:a.Rpe.span Diagnostic.Error "NPL001"
              (Printf.sprintf "unknown concept %S%s" a.Rpe.cls
                 (suggest concepts a.Rpe.cls))
        | Some _ -> check_pred ~schema ~add a)
    | Rpe.Seq (x, y) | Rpe.Alt (x, y) ->
        go x;
        go y
    | Rpe.Rep (r, i, j) ->
        if i < 0 || j < i || j < 1 then
          add ~span:(first_span_rpe r) Diagnostic.Error "NPL005"
            (Printf.sprintf "invalid repetition bounds {%d,%d}" i j);
        go r
  in
  go rpe;
  !resolved

(* -- satisfiability: NPL010..NPL012, NPL015 --------------------------- *)

type var_shape = {
  vs_norm : Rpe.norm;
  vs_starts : Strset.t option;  (** possible source-node classes *)
  vs_ends : Strset.t option;  (** possible target-node classes *)
}

(* Atom copies in the pattern's automaton: repetitions unroll. Saturates
   past [max_unrolled_atoms]. *)
let rec unrolled_atoms = function
  | Rpe.N_atom _ -> 1
  | Rpe.N_seq rs | Rpe.N_alt rs ->
      List.fold_left
        (fun acc r -> min (max_unrolled_atoms + 1) (acc + unrolled_atoms r))
        0 rs
  | Rpe.N_rep (r, _, n) ->
      min (max_unrolled_atoms + 1) (min n (max_unrolled_atoms + 1) * unrolled_atoms r)

let check_satisfiability ~schema ~(add : ?span:Span.t -> Diagnostic.severity -> string -> string -> unit) norm =
  let tb = tables_of schema in
  let rec high_reps = function
    | Rpe.N_atom _ -> ()
    | Rpe.N_seq rs | Rpe.N_alt rs -> List.iter high_reps rs
    | Rpe.N_rep (r, m, n) ->
        if n >= high_rep_threshold then
          add ~span:(first_span_norm r) Diagnostic.Warning "NPL015"
            (Printf.sprintf
               "repetition bound {%d,%d} walks up to %d steps; high-fanout \
                edge classes make this expensive — consider a tighter bound"
               m n n);
        high_reps r
  in
  high_reps norm;
  let shape ends =
    Some { vs_norm = norm; vs_starts = start_node_classes schema tb norm; vs_ends = ends }
  in
  if unrolled_atoms norm > max_unrolled_atoms then shape None
  else
    let kind_of (a : Rpe.atom) =
      match Schema.kind_of schema a.Rpe.cls with
      | Some Schema.Node_kind -> Some `Node
      | Some Schema.Edge_kind -> Some `Edge
      | None -> None
    in
    let nfa = Nfa.compile ~lead_skip:false ~trail_skip:true ~kind_of norm in
    let mask = verdict schema ~rev:false nfa in
    let verdict_of = Nfa.match_verdict nfa mask in
    match Nfa.accept_frontier mask with
    | None ->
        (* Blame the first atom no conforming element can take where the
           pathway reaches it. *)
        let blamed =
          List.find_opt (fun a -> verdict_of a = Nfa.Blocked) (Rpe.atoms norm)
        in
        add
          ~span:
            (match blamed with
            | Some a -> a.Rpe.span
            | None -> first_span_norm norm)
          Diagnostic.Error "NPL010"
          "pattern is provably empty: the schema's edge rules admit no pathway \
           matching it";
        None
    | Some final ->
        (* A branch that must match an atom but matches none on any
           accepted conforming run, in any unrolled copy, is dead; the
           alternations inside a dead branch are not reported again. *)
        let dead r =
          Rpe.min_length r > 0
          && List.for_all (fun a -> verdict_of a <> Nfa.Live) (Rpe.atoms r)
        in
        let rec branches ~in_dead = function
          | Rpe.N_atom _ -> ()
          | Rpe.N_seq rs -> List.iter (branches ~in_dead) rs
          | Rpe.N_rep (r, _, _) -> branches ~in_dead r
          | Rpe.N_alt rs ->
              List.iter
                (fun r ->
                  let d = dead r in
                  if d && not in_dead then
                    add ~span:(first_span_norm r) Diagnostic.Warning "NPL011"
                      (Printf.sprintf
                         "union branch %s can never match here and is dead"
                         (Rpe.norm_to_string r));
                  branches ~in_dead:(in_dead || d) r)
                rs;
              let rec dups = function
                | [] -> ()
                | r :: rest ->
                    (match List.find_opt (Rpe.equal_norm r) rest with
                    | Some r' ->
                        add ~span:(first_span_norm r') Diagnostic.Warning
                          "NPL012"
                          (Printf.sprintf "duplicate union branch %s"
                             (Rpe.norm_to_string r'))
                    | None -> ());
                    dups (List.filter (fun r' -> not (Rpe.equal_norm r r')) rest)
              in
              dups rs
        in
        branches ~in_dead:false norm;
        shape
          (if Intset.mem start_state final then None
           else Some (frontier_node_classes tb final))

(* -- whole-query analysis -------------------------------------------- *)

let analyze ~schema ?schema_of ?cost q =
  let schema_for =
    match schema_of with
    | Some f -> f
    | None -> fun _ -> schema
  in
  let diags = ref [] in
  let add ?(span = Span.dummy) severity code message =
    diags := Diagnostic.make ~span severity code message :: !diags
  in
  let rec check_query ~outer (q : Q.query) =
    let declared = List.map (fun v -> v.Q.var_name) q.Q.vars in
    let scope = declared @ outer in
    (* NPL009: duplicate declarations *)
    let rec dup_check = function
      | [] -> ()
      | v :: rest ->
          if List.exists (fun w -> w.Q.var_name = v.Q.var_name) rest then
            add ~span:v.Q.var_span Diagnostic.Error "NPL009"
              (Printf.sprintf "variable %S declared twice" v.Q.var_name);
          dup_check rest
    in
    dup_check q.Q.vars;
    let conjs = Q.conjuncts q.Q.where_ in
    (* NPL008: MATCHES below a top-level conjunct *)
    List.iter
      (fun c ->
        match c with
        | Q.Matches _ -> ()
        | c when Q.mentions_matches c ->
            add Diagnostic.Error "NPL008"
              "MATCHES may only appear as a top-level conjunct"
        | _ -> ())
      conjs;
    let matches =
      List.filter_map (function Q.Matches (v, r) -> Some (v, r) | _ -> None) conjs
    in
    (* NPL006: MATCHES on an undeclared variable *)
    List.iter
      (fun (v, r) ->
        if not (List.mem v declared) then
          add ~span:(first_span_rpe r) Diagnostic.Error "NPL006"
            (Printf.sprintf "MATCHES on undeclared variable %S" v))
      matches;
    (* Per-variable RPE checks; NPL007 for missing/multiple MATCHES. *)
    let var_shapes =
      List.filter_map
        (fun v ->
          match List.filter (fun (w, _) -> w = v.Q.var_name) matches with
          | [] ->
              add ~span:v.Q.var_span Diagnostic.Error "NPL007"
                (Printf.sprintf "variable %S has no MATCHES predicate"
                   v.Q.var_name);
              None
          | [ (_, rpe) ] ->
              let vschema = schema_for v.Q.var_name in
              if not (check_atoms ~schema:vschema ~add rpe) then None
              else
                let norm = Rpe.normalize rpe in
                Option.map
                  (fun shape -> (v, shape))
                  (check_satisfiability ~schema:vschema ~add norm)
          | _ :: _ :: _ ->
              add ~span:v.Q.var_span Diagnostic.Error "NPL007"
                (Printf.sprintf "variable %S has multiple MATCHES predicates"
                   v.Q.var_name);
              None)
        q.Q.vars
    in
    (* NPL013: the query window and a variable's own timeslice never
       intersect — the coexistence window is empty by construction. *)
    (match q.Q.q_at with
    | Some (Q.At_range (w0, w1)) ->
        let window = Interval_set.singleton (Interval.between w0 w1) in
        List.iter
          (fun v ->
            let contradiction =
              match v.Q.var_tc with
              | Some (Q.At_point t) -> not (Interval_set.contains window t)
              | Some (Q.At_range (a, b)) ->
                  Interval_set.is_empty
                    (Interval_set.inter window
                       (Interval_set.singleton (Interval.between a b)))
              | None -> false
            in
            if contradiction then
              add ~span:v.Q.var_span Diagnostic.Warning "NPL013"
                (Printf.sprintf
                   "variable %S is evaluated at a timeslice disjoint from the \
                    query window %s : %s — the temporal constraints \
                    contradict each other"
                   v.Q.var_name
                   (Nepal_temporal.Time_point.to_string w0)
                   (Nepal_temporal.Time_point.to_string w1)))
          q.Q.vars
    | _ -> ());
    (* Join/anchor classification: the engine's own, in conjunct order. *)
    let cls = Q.classify conjs in
    let joins = List.rev cls.Q.joins in
    let lit_anchors = List.rev cls.Q.anchors_from_lit in
    (* NPL018 (error form): a literal node-function pin must be an
       integer uid — the engine refuses to seed from anything else. *)
    List.iter
      (fun (f, v, lit) ->
        match lit with
        | Value.Int _ -> ()
        | _ ->
            add Diagnostic.Error "NPL018"
              (Printf.sprintf
                 "%s(%s) = %s pins a node function to a non-integer literal; \
                  node identities are integers"
                 (Q.path_fun_to_string f) v (Value.to_string lit)))
      lit_anchors;
    (* NPL014: anchorability closure. A variable is evaluable when its
       RPE is anchorable, it is pinned by a literal, or it joins
       (transitively) to an evaluable variable. *)
    let cost_for v =
      match cost with
      | Some f -> f v
      | None -> fun _ -> 1.0
    in
    let self_evaluable (v, shape) =
      List.exists (fun (_, w, _) -> w = v.Q.var_name) lit_anchors
      || Result.is_ok (Anchor.select ~cost:(cost_for v.Q.var_name) shape.vs_norm)
    in
    let evaluable = Hashtbl.create 8 in
    List.iter
      (fun ((v, _) as entry) ->
        if self_evaluable entry then Hashtbl.replace evaluable v.Q.var_name ())
      var_shapes;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (_, v1, _, v2) ->
          let grow a b =
            if Hashtbl.mem evaluable a && not (Hashtbl.mem evaluable b) then begin
              Hashtbl.replace evaluable b ();
              changed := true
            end
          in
          grow v1 v2;
          grow v2 v1)
        joins
    done;
    List.iter
      (fun (v, _) ->
        if not (Hashtbl.mem evaluable v.Q.var_name) then
          add ~span:v.Q.var_span Diagnostic.Error "NPL014"
            (Printf.sprintf
               "variable %S is not anchored and cannot import an anchor from \
                a join"
               v.Q.var_name))
      var_shapes;
    (* NPL016: join-connectivity components — unjoined variable groups
       multiply into a cross-product. *)
    if List.length declared > 1 then begin
      let parent = Hashtbl.create 8 in
      List.iter (fun v -> Hashtbl.replace parent v v) declared;
      let rec find v =
        let p = try Hashtbl.find parent v with Not_found -> v in
        if p = v then v
        else begin
          let r = find p in
          Hashtbl.replace parent v r;
          r
        end
      in
      let union a b =
        let ra = find a and rb = find b in
        if ra <> rb then Hashtbl.replace parent ra rb
      in
      List.iter
        (fun (_, v1, _, v2) ->
          if List.mem v1 declared && List.mem v2 declared then union v1 v2)
        joins;
      let roots = List.sort_uniq String.compare (List.map find declared) in
      if List.length roots > 1 then
        let span =
          match List.rev q.Q.vars with v :: _ -> v.Q.var_span | [] -> Span.dummy
        in
        add ~span Diagnostic.Warning "NPL016"
          (Printf.sprintf
           "variables %s are not connected by source/target joins; their \
            pathway sets combine as a cross-product"
            (String.concat ", " declared))
    end;
    (* NPL019: expensive anchors (needs a live cost function). *)
    (match cost with
    | None -> ()
    | Some _ ->
        let joined v =
          List.exists (fun (_, v1, _, v2) -> v1 = v || v2 = v) joins
        in
        List.iter
          (fun (v, shape) ->
            let name = v.Q.var_name in
            if
              (not (joined name))
              && not (List.exists (fun (_, w, _) -> w = name) lit_anchors)
            then
              match Anchor.select ~cost:(cost_for name) shape.vs_norm with
              | Ok sel when sel.Anchor.cost >= expensive_anchor_threshold ->
                  let span =
                    match sel.Anchor.splits with
                    | s :: _ -> s.Anchor.anchor.Rpe.span
                    | [] -> Span.dummy
                  in
                  add ~span Diagnostic.Hint "NPL019"
                    (Printf.sprintf
                       "cheapest anchor for %S scans an estimated %.0f \
                        records; a more selective predicate or a literal/join \
                        seed would narrow it"
                       name sel.Anchor.cost)
              | _ -> ())
          var_shapes);
    (* Scalar checks: NPL006 (scope), NPL017/NPL018 (field existence and
       typing against endpoint classes), NPL020 (aggregate placement). *)
    let shape_for name =
      List.find_map
        (fun (v, shape) -> if v.Q.var_name = name then Some shape else None)
        var_shapes
    in
    (* Possible leaf types of a field access, [None] when unknown. *)
    let field_leaf_types f name path =
      match shape_for name with
      | None -> None
      | Some shape -> (
          let clsset =
            match f with Q.Source -> shape.vs_starts | Q.Target -> shape.vs_ends
          in
          match (clsset, path) with
          | None, _ | _, [] -> None
          | Some set, head :: rest ->
              let vschema = schema_for name in
              let leafs =
                Strset.fold
                  (fun c acc ->
                    match Schema.field_type vschema c head with
                    | None -> acc
                    | Some ft -> (
                        match Predicate.path_type vschema ft rest with
                        | Ok l -> l :: acc
                        | Error _ -> acc))
                  set []
              in
              if leafs = [] then begin
                let fields =
                  Strset.fold
                    (fun c acc -> List.map fst (fields_of_safe vschema c) @ acc)
                    set []
                  |> List.sort_uniq String.compare
                in
                add Diagnostic.Warning "NPL017"
                  (Printf.sprintf
                     "no possible %s class of %S has field %s — the value is \
                      always Null%s"
                     (Q.path_fun_to_string f) name (String.concat "." path)
                     (suggest fields head))
              end;
              Some leafs)
    in
    (* [None]: type unknown; [Some ts]: value is one of these types. *)
    let rec scalar_types ~agg_ok sc =
      match sc with
      | Q.Lit _ -> None
      | Q.Node_of (_, v) | Q.Length_of v ->
          if not (List.mem v scope) then begin
            add Diagnostic.Error "NPL006"
              (Printf.sprintf "reference to undeclared pathway variable %S" v);
            None
          end
          else Some [ Ftype.T_int ]
      | Q.Field_of (f, v, path) ->
          if not (List.mem v scope) then begin
            add Diagnostic.Error "NPL006"
              (Printf.sprintf "reference to undeclared pathway variable %S" v);
            None
          end
          else field_leaf_types f v path
      | Q.Aggregate (kind, inner) ->
          if not agg_ok then
            add Diagnostic.Error "NPL020"
              "aggregates are only allowed as Select items";
          let inner_t =
            Option.map (scalar_types ~agg_ok:false) inner
          in
          (match kind with
          | Q.Count -> Some [ Ftype.T_int ]
          | Q.Min | Q.Max | Q.Sum | Q.Avg -> Option.join inner_t)
    in
    let literal_fits ts lit =
      match lit with
      | Value.Null -> true
      | _ ->
          List.exists
            (fun t ->
              match Predicate.coerce_literal t lit with
              | Ok lit' -> Predicate.literal_compatible t lit'
              | Error _ -> false)
            ts
    in
    let check_cmp a op b =
      let ta = scalar_types ~agg_ok:false a in
      let tb = scalar_types ~agg_ok:false b in
      let warn_side s ts lit =
        (* The engine's literal-anchor path already errors on pinned
           node functions (NPL018 error form above); everything else
           that cannot typecheck compares as plain values and is
           simply always false — a warning-grade mistake. *)
        let is_pinned_node =
          match (s, op) with
          | Q.Node_of _, Predicate.Eq -> true
          | _ -> false
        in
        if (not is_pinned_node) && ts <> [] && not (literal_fits ts lit) then
          add Diagnostic.Warning "NPL018"
            (Printf.sprintf
               "%s has type %s, incompatible with %s — this comparison is \
                always false"
               (Q.scalar_to_string s)
               (String.concat "|" (List.map Ftype.to_string ts))
               (Value.to_string lit))
      in
      (match (ta, b) with
      | Some ts, Q.Lit lit -> warn_side a ts lit
      | _ -> ());
      match (tb, a) with
      | Some ts, Q.Lit lit -> warn_side b ts lit
      | _ -> ()
    in
    (* Walk every condition: scalar scope/type checks plus subqueries.
       MATCHES conjuncts were handled above. *)
    let rec walk_cond = function
      | Q.Matches _ -> ()
      | Q.Cmp (a, op, b) -> check_cmp a op b
      | Q.And (x, y) | Q.Or (x, y) ->
          walk_cond x;
          walk_cond y
      | Q.Not x -> walk_cond x
      | Q.Exists sub | Q.Not_exists sub -> check_query ~outer:scope sub
    in
    walk_cond q.Q.where_;
    (* Result clause: NPL006 for Retrieve of unknown variables; Select
       items may use aggregates (and only they may). *)
    match q.Q.mode with
    | Q.Retrieve names ->
        List.iter
          (fun v ->
            if not (List.mem v scope) then
              add Diagnostic.Error "NPL006"
                (Printf.sprintf "Retrieve of undeclared variable %S" v))
          names
    | Q.Select items ->
        List.iter
          (fun { Q.item; _ } -> ignore (scalar_types ~agg_ok:true item))
          items
  in
  check_query ~outer:[] q;
  List.sort_uniq
    (fun a b ->
      let c = Diagnostic.compare_by_severity a b in
      if c <> 0 then c else compare a b)
    !diags

(* -- string entry point ---------------------------------------------- *)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let int_after s key =
  let ns = String.length s and nk = String.length key in
  let rec find i =
    if i + nk > ns then None
    else if String.sub s i nk = key then begin
      let j = i + nk in
      let rec digits k =
        if k < ns && s.[k] >= '0' && s.[k] <= '9' then digits (k + 1) else k
      in
      let k = digits j in
      if k > j then int_of_string_opt (String.sub s j (k - j)) else None
    end
    else find (i + 1)
  in
  find 0

let parse_error_span ~source msg =
  match (int_after msg "line ", int_after msg "column ") with
  | Some line, Some col ->
      let rec bol l i =
        if l <= 1 then i
        else
          match String.index_from_opt source i '\n' with
          | Some j -> bol (l - 1) (j + 1)
          | None -> i
      in
      let start = bol line 0 + (col - 1) in
      Span.of_offsets ~source ~start ~stop:(start + 1)
  | _ -> Span.dummy

let analyze_string ~schema ?schema_of ?cost text =
  match Nepal_query.Query_parser.parse text with
  | Error e ->
      let code =
        if contains_substring e "invalid repetition bounds" then "NPL005"
        else "NPL000"
      in
      [ Diagnostic.make ~span:(parse_error_span ~source:text e) Diagnostic.Error
          code e ]
  | Ok q -> analyze ~schema ?schema_of ?cost q

(* -- change-relevance filter ------------------------------------------

   Pre-computed once for a standing (watched) query so a monitor can
   discard store changes that provably cannot affect its result set.
   Soundness is class-level over-approximation, like satisfiability:
   a change to class [c] at transaction time [t] can only matter when
   [c] is in [rel_classes] (or [rel_classes] is [None] = unknown) and
   [t] does not fall after [rel_until].

   The class set must include more than the classes named by the
   query's atoms, because the junction rule matches elements the query
   never names: a node-to-node junction traverses one unmatched edge,
   and an edge-to-edge junction (or a leading/trailing edge atom)
   traverses one unmatched node. The closure is driven by which
   junction shapes actually occur — computed by a first/last/adjacency
   pass over each pattern — so a fully explicit pattern like
   [A()->e()->B()] closes over nothing: only when two node atoms can be
   adjacent does it add the edge classes the schema allows between two
   relevant node classes, and only when two edge atoms can be adjacent
   (or a pattern can start/end on an edge atom) does it add the node
   classes that can be an endpoint of a relevant (matched) edge
   class. *)

(* First/last atom kinds, whether the expression can match empty, and
   which kind adjacencies (junctions) can occur inside it. *)
type junctions = {
  j_first_node : bool;
  j_first_edge : bool;
  j_last_node : bool;
  j_last_edge : bool;
  j_eps : bool;
  j_nn : bool;  (* two node atoms can be adjacent: skips an edge *)
  j_ee : bool;  (* two edge atoms can be adjacent: skips a node *)
}

let j_empty =
  {
    j_first_node = false;
    j_first_edge = false;
    j_last_node = false;
    j_last_edge = false;
    j_eps = true;
    j_nn = false;
    j_ee = false;
  }

let j_join a b =
  (* [a] followed by [b]: junctions across the seam. *)
  {
    j_first_node = a.j_first_node || (a.j_eps && b.j_first_node);
    j_first_edge = a.j_first_edge || (a.j_eps && b.j_first_edge);
    j_last_node = b.j_last_node || (b.j_eps && a.j_last_node);
    j_last_edge = b.j_last_edge || (b.j_eps && a.j_last_edge);
    j_eps = a.j_eps && b.j_eps;
    j_nn = a.j_nn || b.j_nn || (a.j_last_node && b.j_first_node);
    j_ee = a.j_ee || b.j_ee || (a.j_last_edge && b.j_first_edge);
  }

let rec junctions_of kind_of = function
  | Rpe.Atom a -> (
      match kind_of a.Rpe.cls with
      | Some Schema.Node_kind ->
          { j_empty with j_first_node = true; j_last_node = true; j_eps = false }
      | Some Schema.Edge_kind ->
          { j_empty with j_first_edge = true; j_last_edge = true; j_eps = false }
      | None ->
          (* unknown class: assume the worst on both sides *)
          {
            j_first_node = true;
            j_first_edge = true;
            j_last_node = true;
            j_last_edge = true;
            j_eps = false;
            j_nn = false;
            j_ee = false;
          })
  | Rpe.Seq (x, y) -> j_join (junctions_of kind_of x) (junctions_of kind_of y)
  | Rpe.Alt (x, y) ->
      let a = junctions_of kind_of x and b = junctions_of kind_of y in
      {
        j_first_node = a.j_first_node || b.j_first_node;
        j_first_edge = a.j_first_edge || b.j_first_edge;
        j_last_node = a.j_last_node || b.j_last_node;
        j_last_edge = a.j_last_edge || b.j_last_edge;
        j_eps = a.j_eps || b.j_eps;
        j_nn = a.j_nn || b.j_nn;
        j_ee = a.j_ee || b.j_ee;
      }
  | Rpe.Rep (x, lo, hi) ->
      let a = junctions_of kind_of x in
      let repeated = hi > 1 in
      {
        a with
        j_eps = a.j_eps || lo = 0;
        j_nn = a.j_nn || (repeated && a.j_last_node && a.j_first_node);
        j_ee = a.j_ee || (repeated && a.j_last_edge && a.j_first_edge);
      }

type relevance = {
  rel_classes : Strset.t option;
      (** Concrete classes whose changes can affect the query; [None]
          means unknown (treat every change as relevant). *)
  rel_until : Nepal_temporal.Time_point.t option;
      (** When every range variable reads a bounded window, the latest
          window end: transaction times after it can never be visible
          to the query (transaction time is monotone, so history behind
          the bound is immutable). [None] when any variable reads the
          current snapshot. *)
}

let relevance ~schema (q : Q.query) =
  let tb = tables_of schema in
  let nn = Array.length tb.t_nodes and ne = Array.length tb.t_edges in
  (* Every RPE atom in the query, recursing into EXISTS subqueries. *)
  let rec rpe_atoms acc = function
    | Rpe.Atom a -> a :: acc
    | Rpe.Seq (x, y) | Rpe.Alt (x, y) -> rpe_atoms (rpe_atoms acc x) y
    | Rpe.Rep (x, _, _) -> rpe_atoms acc x
  in
  let rec cond_atoms acc = function
    | Q.Matches (_, r) -> rpe_atoms acc r
    | Q.And (a, b) | Q.Or (a, b) -> cond_atoms (cond_atoms acc a) b
    | Q.Not c -> cond_atoms acc c
    | Q.Exists sub | Q.Not_exists sub -> cond_atoms acc sub.Q.where_
    | Q.Cmp _ -> acc
  in
  let rec cond_rpes acc = function
    | Q.Matches (_, r) -> r :: acc
    | Q.And (a, b) | Q.Or (a, b) -> cond_rpes (cond_rpes acc a) b
    | Q.Not c -> cond_rpes acc c
    | Q.Exists sub | Q.Not_exists sub -> cond_rpes acc sub.Q.where_
    | Q.Cmp _ -> acc
  in
  let atoms = cond_atoms [] q.Q.where_ in
  let rpes = cond_rpes [] q.Q.where_ in
  let unknown = ref false in
  let node_set = ref Intset.empty and edge_set = ref Intset.empty in
  List.iter
    (fun (a : Rpe.atom) ->
      let add idx set =
        List.iter
          (fun c ->
            match Hashtbl.find_opt idx c with
            | Some i -> set := Intset.add i !set
            | None -> ())
          (Schema.concrete_subclasses schema a.Rpe.cls)
      in
      match Schema.kind_of schema a.Rpe.cls with
      | None -> unknown := true
      | Some Schema.Node_kind -> add tb.t_node_idx node_set
      | Some Schema.Edge_kind -> add tb.t_edge_idx edge_set)
    atoms;
  (* Which junction shapes occur anywhere in the query's patterns.
     Patterns are independent pathways, so they combine like
     alternation (no seam), not like sequencing. *)
  let j =
    List.fold_left
      (fun acc r ->
        let b = junctions_of (Schema.kind_of schema) r in
        {
          j_first_node = acc.j_first_node || b.j_first_node;
          j_first_edge = acc.j_first_edge || b.j_first_edge;
          j_last_node = acc.j_last_node || b.j_last_node;
          j_last_edge = acc.j_last_edge || b.j_last_edge;
          j_eps = acc.j_eps || b.j_eps;
          j_nn = acc.j_nn || b.j_nn;
          j_ee = acc.j_ee || b.j_ee;
        })
      { j_empty with j_eps = false }
      rpes
  in
  let skips_edge = j.j_nn in
  let skips_node = j.j_ee || j.j_first_edge || j.j_last_edge in
  let rel_classes =
    if !unknown || atoms = [] then None
    else begin
      (* Node-to-node junctions traverse one unmatched edge: any edge
         class the schema allows between two relevant node classes. *)
      let edges = ref !edge_set in
      if skips_edge then
        for e = 0 to ne - 1 do
          if
            (not (Intset.mem e !edges))
            && Intset.exists
                 (fun a ->
                   not
                     (Intset.is_empty (Intset.inter tb.t_succ.(e).(a) !node_set)))
                 !node_set
          then edges := Intset.add e !edges
        done;
      (* Edge-to-edge junctions and leading/trailing edge atoms traverse
         one unmatched node: any node class that can be an endpoint of a
         {e matched} edge class (a closure-added edge sits between two
         matched nodes, so its endpoints are already in the set). *)
      let nodes = ref !node_set in
      if skips_node then
        Intset.iter
          (fun e ->
            for a = 0 to nn - 1 do
              if not (Intset.is_empty tb.t_succ.(e).(a)) then begin
                nodes := Intset.add a !nodes;
                nodes := Intset.union tb.t_succ.(e).(a) !nodes
              end
            done)
          !edge_set;
      let s = ref Strset.empty in
      Intset.iter (fun i -> s := Strset.add tb.t_nodes.(i) !s) !nodes;
      Intset.iter (fun e -> s := Strset.add tb.t_edges.(e) !s) !edges;
      Some !s
    end
  in
  (* Latest window end over every variable, [None] when any variable is
     unbounded. A subquery without its own AT clause may inherit the
     enclosing evaluation time, so its variables are resolved against
     the nearest enclosing default. *)
  let module Tp = Nepal_temporal.Time_point in
  let combine a b =
    match (a, b) with Some x, Some y -> Some (Tp.max x y) | _ -> None
  in
  let until_of_tc = function
    | Some (Q.At_point p) -> Some p
    | Some (Q.At_range (_, b)) -> Some b
    | None -> None
  in
  let rec query_until ~default (sub : Q.query) =
    let default =
      match sub.Q.q_at with Some _ -> sub.Q.q_at | None -> default
    in
    let vars_until =
      List.fold_left
        (fun acc (v : Q.range_var) ->
          let tc = match v.Q.var_tc with Some _ -> v.Q.var_tc | None -> default in
          combine acc (until_of_tc tc))
        (Some Tp.epoch) sub.Q.vars
    in
    cond_until ~default vars_until sub.Q.where_
  and cond_until ~default acc = function
    | Q.Exists sub | Q.Not_exists sub -> combine acc (query_until ~default sub)
    | Q.And (a, b) | Q.Or (a, b) ->
        cond_until ~default (cond_until ~default acc a) b
    | Q.Not c -> cond_until ~default acc c
    | Q.Matches _ | Q.Cmp _ -> acc
  in
  { rel_classes; rel_until = query_until ~default:None q }

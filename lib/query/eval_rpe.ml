module Time_constraint = Nepal_temporal.Time_constraint
module Interval_set = Nepal_temporal.Interval_set
module Schema = Nepal_schema.Schema
module Metrics = Nepal_util.Metrics
module Domain_pool = Nepal_util.Domain_pool
module Rpe = Nepal_rpe.Rpe
module Nfa = Nepal_rpe.Nfa
module Anchor = Nepal_rpe.Anchor
module Predicate = Nepal_rpe.Predicate
open Backend_intf

type seed =
  | Anywhere
  | From_nodes of Path.element list * versions
  | To_nodes of Path.element list * versions

(* A bidirectional (meet-in-the-middle) plan for a
   node · edge-rep{m,n} · node RPE: expand forward from the left
   endpoint through [bd_fwd] = left·body{1,k1} and backward from the
   right endpoint through [bd_bwd] = reverse(body{1,k2}·right) with
   k1 + k2 = n + 1, then join the two half-pathways on their shared
   final (matched) edge. Because the shape admits no junction skips —
   elements strictly alternate and both endpoints are matched node
   atoms — a joined pathway with r repetition copies has exactly
   2r + 1 elements, so [bd_min_length] (the original RPE's
   {!Rpe.min_length}) enforces the lower repetition bound m. *)
type bidi_plan = {
  bd_left : Rpe.atom;
  bd_right : Rpe.atom;
  bd_fwd : Rpe.norm;
  bd_bwd : Rpe.norm;
  bd_min_length : int;
}

type strategy = Auto | Forced of Anchor.selection | Bidi of bidi_plan

type pruner = dir:Backend_intf.direction -> Nfa.t -> Nfa.t

let apply_prune prune ~dir nfa =
  match prune with None -> nfa | Some f -> f ~dir nfa

type config = { domains : int; par_threshold : int }

let default_config () =
  { domains = Domain_pool.default_domains (); par_threshold = 4 }

type stats = {
  mutable selects : int;
  mutable extends : int;
  mutable frontier_peak : int;
  mutable merged_partials : int;
  mutable saved_fetches : int;
  mutable walk_tasks : int;
  mutable domains_used : int;
}

let new_stats () =
  {
    selects = 0;
    extends = 0;
    frontier_peak = 0;
    merged_partials = 0;
    saved_fetches = 0;
    walk_tasks = 0;
    domains_used = 0;
  }

(* Fold a per-task stats record (from one domain's walk) into the
   caller's. *)
let merge_stats dst src =
  dst.selects <- dst.selects + src.selects;
  dst.extends <- dst.extends + src.extends;
  dst.frontier_peak <- max dst.frontier_peak src.frontier_peak;
  dst.merged_partials <- dst.merged_partials + src.merged_partials;
  dst.saved_fetches <- dst.saved_fetches + src.saved_fetches;
  dst.walk_tasks <- dst.walk_tasks + src.walk_tasks;
  dst.domains_used <- max dst.domains_used src.domains_used

let ( let* ) = Result.bind

let kind_of_for sch (a : Rpe.atom) =
  match Rpe.atom_kind sch a with
  | Some Schema.Node_kind -> Some `Node
  | Some Schema.Edge_kind -> Some `Edge
  | None -> None

(* A partial pathway during one directional walk. [rev_elements] is in
   walk order reversed (frontier first): each partial conses one element
   onto its parent's list, so the partials of a walk form a
   prefix-shared tree and the list doubles as the visited set — the
   cycle check walks it, at most [max_length] cells. [valid] tracks the
   running interval-set intersection under Range constraints. [sid] is
   the memo-interned id of [states]. *)
type partial = {
  rev_elements : Path.element list;
  states : Nfa.states;
  sid : int;
  vhash : int;
      (* order-independent hash of the uids on [rev_elements],
         maintained incrementally; merge keys on it *)
  valid : Interval_set.t option;
}

(* Cheap avalanching int mixer (xorshift-multiply); uid hashes are
   XOR-combined so the element-set hash is insertion-order independent. *)
let mix u =
  let h = u * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let frontier_elem p =
  match p.rev_elements with e :: _ -> e | [] -> assert false

(* The way a run consumed an element: by an atom, or unmatched (a
   junction skip). *)
type consumed = By_atom of Rpe.atom | Unmatched

let holds consumed (v : version) =
  match consumed with
  | Unmatched -> true
  | By_atom a -> Predicate.eval a.Rpe.pred v.fields

(* Under Range, the instants at which an element held in the way
   [consumed]: the periods of its versions (those overlapping the
   window) that satisfy it, unclipped. *)
let presence consumed (versions : version list) =
  match versions with
  | [ v ] -> if holds consumed v then Interval_set.singleton v.period else Interval_set.empty
  | _ ->
      Interval_set.of_list
        (List.filter_map
           (fun (v : version) -> if holds consumed v then Some v.period else None)
           versions)

let rec any_satisfies (a : Rpe.atom) = function
  | [] -> false
  | (v : version) :: rest -> Predicate.eval a.Rpe.pred v.fields || any_satisfies a rest

(* Does the element satisfy the atom under the constraint? Under Range
   the predicate may have held in a non-latest version, so the
   element's versions decide. *)
let element_matches ~tc sch ~versions_of (elem : Path.element) (a : Rpe.atom) =
  let kind_ok =
    match Rpe.atom_kind sch a with
    | Some Schema.Node_kind -> elem.Path.is_node
    | Some Schema.Edge_kind -> not elem.Path.is_node
    | None -> false
  in
  kind_ok
  &&
  match tc with
  | Time_constraint.Snapshot | Time_constraint.At _ ->
      Rpe.atom_matches sch a ~cls:elem.Path.cls ~fields:elem.Path.fields
  | Time_constraint.Range _ ->
      Schema.is_subclass sch ~sub:elem.Path.cls ~sup:a.Rpe.cls
      && any_satisfies a (versions_of elem)

let combine_validity a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y -> Some (Interval_set.inter x y)

(* Under Range, a pathway qualifies when its (maximal) validity set
   overlaps the query window. *)
let rec any_admitted tc = function
  | [] -> false
  | iv :: rest -> Time_constraint.admits tc iv || any_admitted tc rest

let validity_ok ~tc v =
  match (tc, v) with
  | Time_constraint.Range _, Some s -> any_admitted tc (Interval_set.to_list s)
  | Time_constraint.Range _, None -> false
  | (Time_constraint.Snapshot | Time_constraint.At _), _ -> true

(* Memoized outcome of one NFA step from an interned state set over an
   element with a given atom-match profile. [e_classes] lists the ways
   the step consumed the element — each distinct atom matched by a Match
   transition, then Skip when a skip could take it — with the way each
   consumes it. It is a property of the profile, not of
   the particular element. [e_from] is the state set before the step.
   [e_plain] is the step's one outcome when validity is not tracked.
   [e_id] keys the per-walk outcome cache. *)
type step_entry = {
  e_states : Nfa.states;
  e_sid : int;
  e_classes : (consumed * Nfa.transition) list;
  e_from : Nfa.states;
  e_plain : (Nfa.states * int * Interval_set.t option) list;
  e_id : int;
}

(* One directional walk from a set of start elements, with the versions
   the start elements' read returned. Returns, for each start, the
   accepted element sequences (in walk order, starting with the start
   element) paired with their validity sets.

   Under Range the walk keeps every element's versions as the reads
   return them, by uid; each Extend's versions replace what a Select
   returned (only the versions that satisfy its atom, which is all a
   start element is asked about). Validity is computed from them.

   The hot loop is dominated by per-candidate NFA simulation and
   validity set construction, so the walk keeps four local
   (single-domain, unsynchronized) memo tables:

   - [match_cache]: (element uid, atom) |-> does it match. Within one
     walk an element's fields are fixed (the backend resolves a uid to
     one representative version under the walk's time constraint), so
     the answer is a function of the pair. Atoms are interned to small
     ints first — unrolled repetitions reuse the same few atoms
     thousands of times.

   - [step_cache]: (state-set id, element kind, atom-match mask) |->
     step outcome. Every atom the simulation may query on a transition
     out of the set appears in the set's outgoing-atom universe, so the
     mask of per-atom match bits fully determines the resulting state
     set and the consumption classes. This bypasses [Nfa.step]'s
     eps-closure scratch array for all but the first element with a
     given profile.

   - [vcache]: (element uid, step-entry id) |-> the element's outcomes
     (successor state sets with their validity contributions), saving
     the validity computation on repeats.

   - [outcome_cache]: (element uid, state-set id) |-> the same outcomes,
     so the innermost loop costs one probe; the finer caches back its
     misses and share work across state sets.

   Under Range, a pathway's validity is the union over its runs of the
   instants at which every element held for the way that run consumed
   it. When all the consumption classes at an element hold at the same
   instants, the runs through them can share one partial. When they do
   not, the partial splits: each class continues with its own successor
   states and its own validity, and [merge] and the final [dedup_paths]
   union what the runs have in common. *)
let walk conn ~tc ~dir ~max_length ~stats ?(emit_edges = false) ~versions nfa
    (starts : Path.element list) =
  let sch = conn_schema conn in
  let vtbl : (int, version list) Hashtbl.t option =
    match tc with
    | Time_constraint.Range _ -> Some (Hashtbl.create 16)
    | Time_constraint.Snapshot | Time_constraint.At _ -> None
  in
  let learn versions =
    match vtbl with
    | None -> ()
    | Some tbl -> List.iter (fun (u, vs) -> Hashtbl.replace tbl u vs) versions
  in
  learn versions;
  let versions_of (elem : Path.element) =
    match Hashtbl.find (Option.get vtbl) elem.Path.uid with
    | vs -> vs
    | exception Not_found ->
        invalid_arg
          (Printf.sprintf "Eval_rpe: %s returned #%d without its versions"
             (conn_name conn) elem.Path.uid)
  in
  let memo = Nfa.Memo.create nfa in
  stats.walk_tasks <- stats.walk_tasks + 1;
  let atom_ids : (Rpe.atom, int) Hashtbl.t = Hashtbl.create 16 in
  let atom_id a =
    match Hashtbl.find_opt atom_ids a with
    | Some i -> i
    | None ->
        let i = Hashtbl.length atom_ids in
        Hashtbl.replace atom_ids a i;
        i
  in
  (* Cache keys are packed into single ints (uids and the per-walk ids
     are small); the rare overflow falls back to direct computation. *)
  let match_cache : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  let elem_match (elem : Path.element) a =
    let i = atom_id a in
    if i >= 64 then element_matches ~tc sch ~versions_of elem a
    else
      let key = (elem.Path.uid lsl 6) lor i in
      match Hashtbl.find_opt match_cache key with
      | Some b -> b
      | None ->
          let b = element_matches ~tc sch ~versions_of elem a in
          Hashtbl.replace match_cache key b;
          b
  in
  (* The distinct atoms on Match transitions out of a state set — the
     mask universe for [step_cache]. *)
  let sid_atoms : (int, Rpe.atom array) Hashtbl.t = Hashtbl.create 32 in
  let atoms_of ~sid states =
    match Hashtbl.find_opt sid_atoms sid with
    | Some arr -> arr
    | None ->
        let seen = Hashtbl.create 8 in
        let uniq = ref [] in
        List.iter
          (fun a ->
            let i = atom_id a in
            if not (Hashtbl.mem seen i) then begin
              Hashtbl.replace seen i ();
              uniq := a :: !uniq
            end)
          (Nfa.Memo.outgoing_atoms memo ~sid states);
        let arr = Array.of_list (List.rev !uniq) in
        Hashtbl.replace sid_atoms sid arr;
        arr
  in
  let step_cache : (int, step_entry option) Hashtbl.t = Hashtbl.create 64 in
  let next_entry = ref 0 in
  let do_step ~sid states (elem : Path.element) =
    let direct () =
      let matched = ref [] in
      let matches a =
        let ok = elem_match elem a in
        (* Unrolled repetitions share atoms physically; structural
           duplicates that slip through are harmless: they stand for
           the same presence set and the same successors. *)
        if ok && not (List.memq a !matched) then matched := a :: !matched;
        ok
      in
      let states' = Nfa.step nfa ~matches ~is_node:elem.Path.is_node states in
      if states' = [] then None
      else
        let skip =
          if Nfa.Memo.can_skip memo ~sid ~is_node:elem.Path.is_node states
          then [ (Unmatched, Nfa.Skip) ]
          else []
        in
        let id = !next_entry in
        incr next_entry;
        let sid' = Nfa.Memo.id memo states' in
        Some
          {
            e_states = states';
            e_sid = sid';
            e_classes =
              List.rev_map (fun a -> (By_atom a, Nfa.Match a)) !matched @ skip;
            e_from = states;
            e_plain = [ (states', sid', None) ];
            e_id = id;
          }
    in
    let atoms = atoms_of ~sid states in
    if Array.length atoms > 40 || sid >= 1 lsl 20 then direct ()
    else begin
      let mask = ref 0 in
      Array.iteri
        (fun i a -> if elem_match elem a then mask := !mask lor (1 lsl i))
        atoms;
      let key =
        ((((!mask lsl 1) lor if elem.Path.is_node then 1 else 0) lsl 20)
         lor sid)
      in
      match Hashtbl.find_opt step_cache key with
      | Some r -> r
      | None ->
          let r = direct () in
          Hashtbl.replace step_cache key r;
          r
    end
  in
  (* Under Range, the successor state sets of one step with their
     validity contributions: one outcome, or one per consumption class
     when the classes hold at different instants. *)
  let range_outcomes (elem : Path.element) (e : step_entry) =
    let versions = versions_of elem in
    let sets = List.map (fun (c, _) -> presence c versions) e.e_classes in
    match sets with
    | s :: rest when List.for_all (Interval_set.equal s) rest ->
        [ (e.e_states, e.e_sid, Some s) ]
    | _ ->
        List.map2
          (fun (_, via) s ->
            let states =
              Nfa.step_via nfa via ~is_node:elem.Path.is_node e.e_from
            in
            (states, Nfa.Memo.id memo states, Some s))
          e.e_classes sets
  in
  let vcache : (int, (Nfa.states * int * Interval_set.t option) list) Hashtbl.t
      =
    Hashtbl.create 64
  in
  let contribution (elem : Path.element) (e : step_entry) =
    match vtbl with
    | None -> e.e_plain
    | Some _ when e.e_id >= 4096 -> range_outcomes elem e
    | Some _ -> (
        let key = (elem.Path.uid lsl 12) lor e.e_id in
        match Hashtbl.find_opt vcache key with
        | Some v -> v
        | None ->
            let v = range_outcomes elem e in
            Hashtbl.replace vcache key v;
            v)
  in
  let outcome_cache :
      (int, (Nfa.states * int * Interval_set.t option) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let compute_outcome ~sid states (elem : Path.element) =
    match do_step ~sid states elem with
    | None -> []
    | Some e -> contribution elem e
  in
  let outcome ~sid states (elem : Path.element) =
    if sid >= 1 lsl 20 then compute_outcome ~sid states elem
    else
      let key = (elem.Path.uid lsl 20) lor sid in
      match Hashtbl.find_opt outcome_cache key with
      | Some r -> r
      | None ->
          let r = compute_outcome ~sid states elem in
          Hashtbl.replace outcome_cache key r;
          r
  in
  let start_states = Nfa.start nfa in
  let start_sid = Nfa.Memo.id memo start_states in
  let init (elem : Path.element) =
    List.filter_map
      (fun (states, sid, valid) ->
        if not (validity_ok ~tc valid) then None
        else
          Some
            {
              rev_elements = [ elem ];
              states;
              sid;
              vhash = mix elem.Path.uid;
              valid;
            })
      (outcome ~sid:start_sid start_states elem)
  in
  (* The next round's partials, collected by [advance]. *)
  let next = ref [] and n_next = ref 0 in
  let rec extend partial (elem : Path.element) = function
    | [] -> ()
    | (states, sid, contrib) :: rest ->
        let valid = combine_validity partial.valid contrib in
        if validity_ok ~tc valid then begin
          next :=
            {
              rev_elements = elem :: partial.rev_elements;
              states;
              sid;
              vhash = partial.vhash lxor mix elem.Path.uid;
              valid;
            }
            :: !next;
          incr n_next
        end;
        extend partial elem rest
  in
  (* Advance one partial over one candidate element. *)
  let advance partial (elem : Path.element) =
    if not (Path.mem_uid elem.Path.uid partial.rev_elements) then
      extend partial elem (outcome ~sid:partial.sid partial.states elem)
  in
  (* Partials agreeing on (frontier uid, state set, element set) denote
     the same element sequence — a cycle-free alternating pathway is
     determined by its element set and endpoint — reached through
     different NFA runs. Keep one, unioning the validity sets (a
     pathway's maximal validity is the union over its runs). *)
  let merge ?(size = 256) parts =
    (* One int-keyed probe per partial: the key hashes (frontier uid,
       state-set id, [vhash]). Exact equality is re-checked inside a
       bucket, so hash collisions cost time, never correctness: both
       chains are cycle-free, so equal lengths plus one lying inside the
       other is set equality. *)
    let tbl : (int, partial ref list ref) Hashtbl.t =
      Hashtbl.create (max 256 size)
    in
    let out = ref [] in
    List.iter
      (fun p ->
        let u = (frontier_elem p).Path.uid in
        let h = mix ((u lsl 20) lxor p.sid) lxor p.vhash in
        match Hashtbl.find_opt tbl h with
        | None ->
            let cell = ref p in
            Hashtbl.replace tbl h (ref [ cell ]);
            out := cell :: !out
        | Some bucket -> (
            let same q =
              (frontier_elem q).Path.uid = u
              && q.sid = p.sid
              && q.vhash = p.vhash
              && List.compare_lengths q.rev_elements p.rev_elements = 0
              && List.for_all
                   (fun (e : Path.element) -> Path.mem_uid e.Path.uid q.rev_elements)
                   p.rev_elements
            in
            match List.find_opt (fun c -> same !c) !bucket with
            | Some cell ->
                stats.merged_partials <- stats.merged_partials + 1;
                let q = !cell in
                let valid =
                  match (q.valid, p.valid) with
                  | Some a, Some b -> Some (Interval_set.union a b)
                  | _ -> None
                in
                cell := { q with valid }
            | None ->
                let cell = ref p in
                bucket := cell :: !bucket;
                out := cell :: !out))
      parts;
    List.rev_map (fun c -> !c) !out
  in
  let accepted = ref [] in
  (* Pathways end on a node, except in a bidirectional half-walk whose
     accepted sequences end on the shared midpoint edge. *)
  let emit p =
    match p.rev_elements with
    | last :: _
      when last.Path.is_node <> emit_edges
           && Nfa.Memo.accepting memo ~sid:p.sid p.states ->
        accepted := (List.rev p.rev_elements, p.valid) :: !accepted
    | _ -> ()
  in
  let frontier = ref (merge (List.concat_map init starts)) in
  List.iter emit !frontier;
  let rounds = ref 1 in
  while !frontier <> [] && !rounds < max_length do
    incr rounds;
    stats.extends <- stats.extends + 1;
    let parts = !frontier in
    let n_parts = List.length parts in
    stats.frontier_peak <- max stats.frontier_peak n_parts;
    (* Partials sharing a frontier element share its neighbourhood: one
       backend fetch per distinct frontier uid. The item's [prefix] is
       only a pruning hint — [advance] re-checks each member's own
       chain — so any subset of the members' common elements is sound:
       a singleton group passes its whole chain, a shared group just the
       frontier (computing the true intersection costs more than the few
       unprunable candidates it would drop). *)
    let groups, items =
      let tbl = Hashtbl.create (max 256 n_parts) in
      let cells = ref [] in
      let ngroups = ref 0 in
      List.iter
        (fun p ->
          let u = (frontier_elem p).Path.uid in
          match Hashtbl.find_opt tbl u with
          | Some cell -> cell := p :: !cell
          | None ->
              let cell = ref [ p ] in
              Hashtbl.replace tbl u cell;
              cells := (p, cell) :: !cells;
              incr ngroups)
        parts;
      stats.saved_fetches <- stats.saved_fetches + (n_parts - !ngroups);
      let groups = Array.make !ngroups [] in
      let items = ref [] in
      let i = ref !ngroups in
      (* [cells] is in reverse discovery order, so walking it while
         counting down yields [items] in discovery order. *)
      List.iter
        (fun ((p0 : partial), cell) ->
          decr i;
          groups.(!i) <- !cell;
          let frontier = frontier_elem p0 in
          let prefix =
            match !cell with [ only ] -> only.rev_elements | _ -> [ frontier ]
          in
          items := { item_id = !i; frontier; prefix } :: !items)
        !cells;
      (groups, !items)
    in
    let spec =
      (* Deduplicate: thousands of partials share the same few state
         sets, and backends check candidates against every listed
         atom. *)
      let seen_sids = ref [] in
      let atoms = ref [] in
      let with_skip = ref false in
      List.iter
        (fun p ->
          let next_is_node = not (frontier_elem p).Path.is_node in
          if
            (not !with_skip)
            && Nfa.Memo.can_skip memo ~sid:p.sid ~is_node:next_is_node p.states
          then with_skip := true;
          if not (List.mem p.sid !seen_sids) then begin
            seen_sids := p.sid :: !seen_sids;
            List.iter
              (fun a -> if not (List.mem a !atoms) then atoms := a :: !atoms)
              (Nfa.Memo.outgoing_atoms memo ~sid:p.sid p.states)
          end)
        parts;
      { atoms = !atoms; with_skip = !with_skip }
    in
    let extensions, versions = bulk_extend conn ~tc ~dir ~spec items in
    learn versions;
    next := [];
    n_next := 0;
    List.iter
      (fun (i, elem) -> List.iter (fun p -> advance p elem) groups.(i))
      extensions;
    let merged = merge ~size:!n_next (List.rev !next) in
    List.iter emit merged;
    frontier := merged
  done;
  !accepted

(* Contiguous near-equal chunks for splitting seed sets across domains. *)
let chunk k xs =
  let n = List.length xs in
  let k = max 1 (min k n) in
  let base = n / k and extra = n mod k in
  let rec take i xs acc =
    if i = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> (List.rev acc, [])
      | x :: tl -> take (i - 1) tl (x :: acc)
  in
  let rec go i xs =
    if i >= k || xs = [] then []
    else
      let sz = base + if i < extra then 1 else 0 in
      let c, rest = take sz xs [] in
      if c = [] then go (i + 1) rest else c :: go (i + 1) rest
  in
  go 0 xs

(* A walk over many independent seeds: split the seed set across the
   domain pool when the backend's reads are parallel-safe. Results are
   concatenated in chunk order, so the outcome is independent of the
   domain count. *)
let seeded_walk conn ~cfg ~tc ~dir ~max_length ~stats ~versions nfa seeds =
  let par =
    parallel_safe conn && cfg.domains > 1
    && List.length seeds >= max 2 cfg.par_threshold
  in
  if not par then begin
    if seeds <> [] then stats.domains_used <- max stats.domains_used 1;
    walk conn ~tc ~dir ~max_length ~stats ~versions nfa seeds
  end
  else begin
    let chunks = chunk cfg.domains seeds in
    stats.domains_used <- max stats.domains_used (List.length chunks);
    let thunks =
      List.map
        (fun c () ->
          let s = new_stats () in
          (walk conn ~tc ~dir ~max_length ~stats:s ~versions nfa c, s))
        chunks
    in
    let out = Domain_pool.run ~domains:cfg.domains thunks in
    List.iter (fun (_, s) -> merge_stats stats s) out;
    List.concat_map fst out
  end

let seq_opt parts =
  match List.filter_map Fun.id parts with
  | [] -> None
  | [ one ] -> Some one
  | many -> Some (Rpe.N_seq many)

module Path_tbl = Hashtbl.Make (Path)

(* One pathway per element sequence. Under Range the same sequence can
   come out of several runs (alternation branches, anchor splits, split
   partials); its validity is the union of theirs. *)
let dedup_paths paths =
  let tbl = Path_tbl.create 64 in
  let out = ref [] in
  List.iter
    (fun p ->
      match Path_tbl.find_opt tbl p with
      | None ->
          let cell = ref p in
          Path_tbl.replace tbl p cell;
          out := cell :: !out
      | Some cell -> (
          match (!cell.Path.valid, p.Path.valid) with
          | Some a, Some b ->
              cell := { !cell with Path.valid = Some (Interval_set.union a b) }
          | _ -> ()))
    paths;
  List.rev_map (fun c -> !c) !out |> List.sort Path.compare

(* One anchor split, prepared: the Select already ran (sequentially —
   selects are few and mutate relational-backend state), the two
   directional NFAs are compiled, and the walks remain to be run. *)
type prepared_split = {
  anchors : Path.element list;
  anchor_versions : versions;
  fwd_nfa : Nfa.t;
  bwd_nfa : Nfa.t;
}

let prepare_split conn ~tc ~stats ?prune (split : Anchor.split) =
  let anchor_atom = split.Anchor.anchor in
  stats.selects <- stats.selects + 1;
  let anchors, anchor_versions = select_atom conn ~tc anchor_atom in
  if anchors = [] then None
  else begin
    let fwd_rpe =
      match seq_opt [ Some (Rpe.N_atom anchor_atom); split.Anchor.after ] with
      | Some r -> r
      | None -> assert false
    in
    let bwd_rpe =
      match
        seq_opt
          [ Some (Rpe.N_atom anchor_atom);
            Option.map Rpe.reverse split.Anchor.before ]
      with
      | Some r -> r
      | None -> assert false
    in
    let kind_of = kind_of_for (conn_schema conn) in
    Some
      {
        anchors;
        anchor_versions;
        fwd_nfa =
          apply_prune prune ~dir:Fwd
            (Nfa.compile ~lead_skip:false ~trail_skip:true ~kind_of fwd_rpe);
        bwd_nfa =
          apply_prune prune ~dir:Bwd
            (Nfa.compile ~lead_skip:false ~trail_skip:true ~kind_of bwd_rpe);
      }
  end

(* Do two element lists share no uid? Bounded by their lengths (at most
   [max_length] each); allocation-free. *)
let rec disjoint xs ys =
  match xs with
  | [] -> true
  | (x : Path.element) :: tl -> (not (Path.mem_uid x.Path.uid ys)) && disjoint tl ys

let join_validity ~tc a b =
  match tc with Time_constraint.Range _ -> combine_validity a b | _ -> None

(* Join the two directional walks of one split on the shared anchor
   element, consing the pathways onto [acc]. Both halves are in walk
   order from the anchor; a pathway is the backward tail reversed onto
   the forward half, which it shares rather than copies. *)
let join_split ~tc ~max_length ~acc fwd bwd =
  let fwd_tbl = Hashtbl.create 64 in
  List.iter
    (fun ((elems, _) as half) ->
      match elems with
      | (anchor : Path.element) :: _ ->
          let u = anchor.Path.uid in
          let others = try Hashtbl.find fwd_tbl u with Not_found -> [] in
          Hashtbl.replace fwd_tbl u (half :: others)
      | [] -> ())
    fwd;
  List.fold_left
    (fun acc (bwd_elems, bwd_valid) ->
      match bwd_elems with
      | [] -> acc
      | (anchor : Path.element) :: bwd_tail -> (
          match Hashtbl.find fwd_tbl anchor.Path.uid with
          | exception Not_found -> acc
          | fwds ->
              let bwd_len = List.length bwd_tail in
              List.fold_left
                (fun acc (fwd_elems, fwd_valid) ->
                  (* Elements must be disjoint across the two sides. *)
                  if
                    bwd_len + List.length fwd_elems > max_length
                    || not (disjoint (List.tl fwd_elems) bwd_tail)
                  then acc
                  else
                    let valid = join_validity ~tc bwd_valid fwd_valid in
                    let p =
                      { Path.elements = List.rev_append bwd_tail fwd_elems; valid }
                    in
                    if Path.well_formed p && validity_ok ~tc valid then p :: acc
                    else acc)
                acc fwds))
    acc bwd

(* Wrap [f] in a child span of [trace] (when tracing), attributing its
   wall time and backend round-trip delta. Only called from the
   coordinating thread — never inside domain-parallel walk tasks. *)
let spanned ?trace conn name detail f =
  match trace with
  | None -> f None
  | Some parent ->
      let s = Trace.child ~detail parent name in
      let rt0 = conn_roundtrips conn in
      let r = Trace.time s (fun () -> f (Some s)) in
      s.Trace.calls <- conn_roundtrips conn - rt0;
      r

(* Anchored evaluation: Select each split's anchor, then run the
   forward/backward walks of all splits — each an independent read-only
   task — on the domain pool when eligible. *)
let eval_anywhere conn ~cfg ~tc ~max_length ~stats ?trace ?prune splits =
  let prepared =
    List.filter_map
      (fun (split : Anchor.split) ->
        spanned ?trace conn "Select" (Anchor.split_to_string split) (fun s ->
            let p = prepare_split conn ~tc ~stats ?prune split in
            (match (s, p) with
            | Some s, Some p -> s.Trace.rows_out <- List.length p.anchors
            | _ -> ());
            p))
      splits
  in
  let total_anchors =
    List.fold_left (fun n p -> n + List.length p.anchors) 0 prepared
  in
  let tasks =
    List.concat_map
      (fun p ->
        [ (Fwd, p.fwd_nfa, p.anchors, p.anchor_versions);
          (Bwd, p.bwd_nfa, p.anchors, p.anchor_versions) ])
      prepared
  in
  let par =
    parallel_safe conn && cfg.domains > 1
    && List.length tasks > 1
    && total_anchors >= cfg.par_threshold
  in
  let extends0 = stats.extends in
  let walk_results =
    spanned ?trace conn "Extend"
      (Printf.sprintf "walks=%d anchors=%d%s" (List.length tasks) total_anchors
         (if par then " parallel" else ""))
      (fun s ->
        let results =
          if par then begin
            stats.domains_used <-
              max stats.domains_used (min cfg.domains (List.length tasks));
            let thunks =
              List.map
                (fun (dir, nfa, anchors, versions) () ->
                  let st = new_stats () in
                  (walk conn ~tc ~dir ~max_length ~stats:st ~versions nfa anchors, st))
                tasks
            in
            let out = Domain_pool.run ~domains:cfg.domains thunks in
            List.iter (fun (_, st) -> merge_stats stats st) out;
            List.map fst out
          end
          else begin
            if tasks <> [] then stats.domains_used <- max stats.domains_used 1;
            List.map
              (fun (dir, nfa, anchors, versions) ->
                walk conn ~tc ~dir ~max_length ~stats ~versions nfa anchors)
              tasks
          end
        in
        (match s with
        | Some s ->
            s.Trace.rows_in <- total_anchors;
            s.Trace.rows_out <-
              List.fold_left (fun n r -> n + List.length r) 0 results;
            Trace.set_detail s
              (Printf.sprintf "%s rounds=%d" s.Trace.detail
                 (stats.extends - extends0))
        | None -> ());
        results)
  in
  (* Tasks were emitted fwd-then-bwd per prepared split, and the pool
     preserves order. *)
  spanned ?trace conn "Union"
    (Printf.sprintf "splits=%d" (List.length prepared))
    (fun s ->
      let rec join acc prepared results =
        match (prepared, results) with
        | [], [] -> acc
        | _ :: ps, fwd :: bwd :: rs ->
            join (join_split ~tc ~max_length ~acc fwd bwd) ps rs
        | _ -> assert false
      in
      let paths = join [] prepared walk_results in
      (match s with
      | Some s ->
          s.Trace.rows_in <-
            List.fold_left (fun n r -> n + List.length r) 0 walk_results;
          s.Trace.rows_out <- List.length paths
      | None -> ());
      paths)

(* Bidirectional (meet-in-the-middle) evaluation: Select both endpoint
   atoms, walk forward from the left endpoints and backward from the
   right ones — each half only as deep as its share of the repetition —
   and join the half-pathways on their shared final edge. Both halves
   are compiled [edge_final] so acceptance is only reachable by
   consuming a matched repetition-body edge; the join therefore glues
   two junction-clean fragments at a matched element and can never
   fabricate the double-skip junctions the one-directional automaton
   forbids. Under Range each joined pair's validity is the intersection
   of its halves'. When both halves consumed the shared edge under the
   same body atom that is exactly one run's validity; under two atoms it
   is a subset of either run's, so the union [dedup_paths] takes over
   split points and runs is the whole pathway's validity. *)
let eval_bidi conn ~cfg ~tc ~max_length ~stats ?trace ?prune (bp : bidi_plan) =
  let kind_of = kind_of_for (conn_schema conn) in
  let compile dir norm =
    apply_prune prune ~dir
      (Nfa.compile ~lead_skip:false ~trail_skip:false ~edge_final:true ~kind_of
         norm)
  in
  let fwd_nfa = compile Fwd bp.bd_fwd and bwd_nfa = compile Bwd bp.bd_bwd in
  let select side (a : Rpe.atom) =
    spanned ?trace conn "Select"
      (Printf.sprintf "bidi %s ⟨%s(%s)⟩" side a.Rpe.cls
         (Predicate.to_string a.Rpe.pred))
      (fun s ->
        stats.selects <- stats.selects + 1;
        let ((r, _) as read) = select_atom conn ~tc a in
        (match s with Some s -> s.Trace.rows_out <- List.length r | None -> ());
        read)
  in
  let left, left_versions = select "left" bp.bd_left in
  let right, right_versions =
    if left = [] then ([], no_versions) else select "right" bp.bd_right
  in
  if left = [] || right = [] then []
  else begin
    let fwd_cap = min max_length (Rpe.max_length bp.bd_fwd) in
    let bwd_cap = min max_length (Rpe.max_length bp.bd_bwd) in
    let tasks =
      [ (Fwd, fwd_nfa, (left, left_versions), fwd_cap);
        (Bwd, bwd_nfa, (right, right_versions), bwd_cap) ]
    in
    let par = parallel_safe conn && cfg.domains > 1 in
    let extends0 = stats.extends in
    let walk_results =
      spanned ?trace conn "Extend"
        (Printf.sprintf "bidirectional left=%d right=%d%s" (List.length left)
           (List.length right)
           (if par then " parallel" else ""))
        (fun s ->
          let results =
            if par then begin
              stats.domains_used <- max stats.domains_used 2;
              let thunks =
                List.map
                  (fun (dir, nfa, (seeds, versions), cap) () ->
                    let st = new_stats () in
                    ( walk conn ~tc ~dir ~max_length:cap ~stats:st
                        ~emit_edges:true ~versions nfa seeds,
                      st ))
                  tasks
              in
              let out = Domain_pool.run ~domains:cfg.domains thunks in
              List.iter (fun (_, st) -> merge_stats stats st) out;
              List.map fst out
            end
            else begin
              stats.domains_used <- max stats.domains_used 1;
              List.map
                (fun (dir, nfa, (seeds, versions), cap) ->
                  walk conn ~tc ~dir ~max_length:cap ~stats
                    ~emit_edges:true ~versions nfa seeds)
                tasks
            end
          in
          (match s with
          | Some s ->
              s.Trace.rows_in <- List.length left + List.length right;
              s.Trace.rows_out <-
                List.fold_left (fun n r -> n + List.length r) 0 results;
              Trace.set_detail s
                (Printf.sprintf "%s rounds=%d" s.Trace.detail
                   (stats.extends - extends0))
          | None -> ());
          results)
    in
    let fwd, bwd =
      match walk_results with [ f; b ] -> (f, b) | _ -> assert false
    in
    spanned ?trace conn "Union" "meet-in-the-middle" (fun s ->
        (* Index backward half-pathways by their final (shared) edge.
           Each is in backward walk order [right; ...; shared edge], so
           reversing it once and dropping the shared edge yields the
           pathway tail after the midpoint. *)
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun (elems, valid) ->
            match List.rev elems with
            | last :: tail when not last.Path.is_node ->
                Hashtbl.add tbl last.Path.uid (tail, valid)
            | _ -> ())
          bwd;
        let out = ref [] in
        List.iter
          (fun (felems, fvalid) ->
            match Path.target { Path.elements = felems; valid = None } with
            | flast when not flast.Path.is_node ->
                List.iter
                  (fun (tail, bvalid) ->
                    let len = List.length felems + List.length tail in
                    if
                      len <= max_length && len >= bp.bd_min_length
                      && disjoint tail felems
                    then begin
                      let valid = join_validity ~tc fvalid bvalid in
                      let p = { Path.elements = felems @ tail; valid } in
                      if Path.well_formed p && validity_ok ~tc valid then
                        out := p :: !out
                    end)
                  (Hashtbl.find_all tbl flast.Path.uid)
            | _ -> ())
          fwd;
        (match s with
        | Some s ->
            s.Trace.rows_in <-
              List.length fwd + List.length bwd;
            s.Trace.rows_out <- List.length !out
        | None -> ());
        !out)
  end

(* Evaluator-level registry instruments: operator counts and
   whole-evaluation latency. *)
let m_selects = Metrics.counter "eval.selects"
let m_extends = Metrics.counter "eval.extends"
let m_walk_tasks = Metrics.counter "eval.walk_tasks"
let m_merged_partials = Metrics.counter "eval.merged_partials"
let m_saved_fetches = Metrics.counter "eval.saved_fetches"
let m_find_seconds = Metrics.histogram "eval.find_seconds"

let find conn ~tc ?max_length ?(seed = Anywhere) ?stats ?(anchor = `Cheapest)
    ?(strategy = Auto) ?prune ?config ?trace norm =
  let cfg = match config with Some c -> c | None -> default_config () in
  let stats = match stats with Some s -> s | None -> new_stats () in
  let selects0 = stats.selects
  and extends0 = stats.extends
  and walk_tasks0 = stats.walk_tasks
  and merged0 = stats.merged_partials
  and saved0 = stats.saved_fetches in
  Metrics.time m_find_seconds @@ fun () ->
  let default_cap = min (Rpe.max_length norm) 64 in
  let max_length =
    match max_length with Some m -> min m 64 | None -> default_cap
  in
  let result =
    match seed with
    | Anywhere when (match strategy with Bidi _ -> true | _ -> false) ->
        let bp = match strategy with Bidi bp -> bp | _ -> assert false in
        let paths =
          eval_bidi conn ~cfg ~tc ~max_length ~stats ?trace ?prune bp
        in
        Ok (dedup_paths paths)
    | Anywhere ->
        let cost a = estimate_atom conn a in
        let* selection =
          match strategy with
          | Forced selection -> Ok selection
          | _ -> (
              match anchor with
              | `Cheapest -> Anchor.select ~cost norm
              | `Costliest -> (
                  match Anchor.enumerate ~cost norm with
                  | [] -> Anchor.select ~cost norm (* reuse its error message *)
                  | first :: rest ->
                      Ok
                        (List.fold_left
                           (fun acc c ->
                             if c.Anchor.cost > acc.Anchor.cost then c else acc)
                           first rest)))
        in
        let paths =
          eval_anywhere conn ~cfg ~tc ~max_length ~stats ?trace ?prune
            selection.Anchor.splits
        in
        Ok (dedup_paths paths)
    | From_nodes (seeds, versions) ->
        let kind_of = kind_of_for (conn_schema conn) in
        let nfa =
          apply_prune prune ~dir:Fwd
            (Nfa.compile ~lead_skip:true ~trail_skip:true ~kind_of norm)
        in
        let seeds = List.filter (fun e -> e.Path.is_node) seeds in
        let accepted =
          spanned ?trace conn "Extend"
            (Printf.sprintf "seeded fwd seeds=%d" (List.length seeds))
            (fun s ->
              let r =
                seeded_walk conn ~cfg ~tc ~dir:Fwd ~max_length ~stats ~versions nfa
                  seeds
              in
              (match s with
              | Some s ->
                  s.Trace.rows_in <- List.length seeds;
                  s.Trace.rows_out <- List.length r
              | None -> ());
              r)
        in
        let paths =
          List.filter_map
            (fun (elems, valid) ->
              let p = { Path.elements = elems; valid } in
              if Path.well_formed p && validity_ok ~tc valid then Some p else None)
            accepted
        in
        let paths =
          match tc with
          | Time_constraint.Range _ -> paths
          | _ -> List.map (fun p -> { p with Path.valid = None }) paths
        in
        Ok (dedup_paths paths)
    | To_nodes (seeds, versions) ->
        let kind_of = kind_of_for (conn_schema conn) in
        let nfa =
          apply_prune prune ~dir:Bwd
            (Nfa.compile ~lead_skip:true ~trail_skip:true ~kind_of
               (Rpe.reverse norm))
        in
        let seeds = List.filter (fun e -> e.Path.is_node) seeds in
        let accepted =
          spanned ?trace conn "Extend"
            (Printf.sprintf "seeded bwd seeds=%d" (List.length seeds))
            (fun s ->
              let r =
                seeded_walk conn ~cfg ~tc ~dir:Bwd ~max_length ~stats ~versions nfa
                  seeds
              in
              (match s with
              | Some s ->
                  s.Trace.rows_in <- List.length seeds;
                  s.Trace.rows_out <- List.length r
              | None -> ());
              r)
        in
        let paths =
          List.filter_map
            (fun (elems, valid) ->
              let p = { Path.elements = List.rev elems; valid } in
              if Path.well_formed p && validity_ok ~tc valid then Some p else None)
            accepted
        in
        let paths =
          match tc with
          | Time_constraint.Range _ -> paths
          | _ -> List.map (fun p -> { p with Path.valid = None }) paths
        in
        Ok (dedup_paths paths)
  in
  Metrics.add m_selects (stats.selects - selects0);
  Metrics.add m_extends (stats.extends - extends0);
  Metrics.add m_walk_tasks (stats.walk_tasks - walk_tasks0);
  Metrics.add m_merged_partials (stats.merged_partials - merged0);
  Metrics.add m_saved_fetches (stats.saved_fetches - saved0);
  result

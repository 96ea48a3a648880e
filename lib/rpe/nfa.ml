type transition = Match of Rpe.atom | Skip

(* Which element kinds a transition may consume: node, edge, or both. *)
type kinds = { k_node : bool; k_edge : bool }

type t = {
  n_states : int;
  moves : (transition * kinds * int) list array; (* consuming transitions *)
  eps : int list array;
  start_state : int;
  accept : int;
}

type states = int list

(* -- construction --------------------------------------------------- *)

type builder = {
  mutable next : int;
  mutable b_moves : (int * transition * int) list;
  mutable b_eps : (int * int) list;
}

let fresh b =
  let s = b.next in
  b.next <- s + 1;
  s

let add_move b s tr t = b.b_moves <- (s, tr, t) :: b.b_moves
let add_eps b s t = b.b_eps <- (s, t) :: b.b_eps

(* A junction between two concatenated sub-RPEs: either adjacent (eps)
   or one unmatched element in between (skip) — the paper's 4-case
   concatenation rule. *)
let junction b a_accept b_start =
  add_eps b a_accept b_start;
  add_move b a_accept Skip b_start

let rec build b (r : Rpe.norm) =
  match r with
  | Rpe.N_atom a ->
      let s = fresh b and t = fresh b in
      add_move b s (Match a) t;
      (s, t)
  | Rpe.N_seq rs ->
      let frags = List.map (build b) rs in
      let rec link = function
        | [ (s, t) ] -> (s, t)
        | (s, t) :: ((s', _) :: _ as rest) ->
            junction b t s';
            let _, last_t = link rest in
            (s, last_t)
        | [] -> invalid_arg "Nfa.build: empty sequence"
      in
      link frags
  | Rpe.N_alt rs ->
      let s = fresh b and t = fresh b in
      List.iter
        (fun r ->
          let s', t' = build b r in
          add_eps b s s';
          add_eps b t' t)
        rs;
      (s, t)
  | Rpe.N_rep (r, i, j) ->
      (* Unroll into j copies with junctions; accepting after each copy
         with index >= max i 1; the whole block is skippable when i=0. *)
      let s = fresh b and t = fresh b in
      let copies = List.init j (fun _ -> build b r) in
      let rec wire k prev_accept = function
        | [] -> ()
        | (cs, ct) :: rest ->
            (match prev_accept with
            | None -> add_eps b s cs
            | Some pa -> junction b pa cs);
            if k >= max i 1 then add_eps b ct t;
            wire (k + 1) (Some ct) rest
      in
      wire 1 None copies;
      if i = 0 then add_eps b s t;
      (s, t)

(* Fixpoint kind inference: pathway elements alternate node/edge, so a
   transition may consume kind k only if some transition that can
   follow it consumes the flipped kind — or it can reach the accept
   state directly, in which case it consumed the pathway's final
   element, a node ([edge_final] relaxes that to either kind: the
   meet-in-the-middle evaluator joins two half-walks on a shared edge,
   so its half-automata accept edge-ending sequences). *)
let infer_kinds ~kind_of ~edge_final n_states raw_moves eps accept =
  let eps_closure_of = Array.make n_states [] in
  for s = 0 to n_states - 1 do
    let seen = Array.make n_states false in
    let rec visit x =
      if not seen.(x) then begin
        seen.(x) <- true;
        List.iter visit eps.(x)
      end
    in
    visit s;
    let acc = ref [] in
    for x = n_states - 1 downto 0 do
      if seen.(x) then acc := x :: !acc
    done;
    eps_closure_of.(s) <- !acc
  done;
  let moves_arr = Array.of_list raw_moves in
  let n_trans = Array.length moves_arr in
  let kinds =
    Array.map
      (fun (_, tr, _) ->
        match tr with
        | Skip -> { k_node = true; k_edge = true }
        | Match a -> (
            match kind_of a with
            | Some `Node -> { k_node = true; k_edge = false }
            | Some `Edge -> { k_node = false; k_edge = true }
            | None -> { k_node = true; k_edge = true }))
      moves_arr
  in
  (* followers.(i): indexes of transitions leaving eps_closure(target i);
     accept_after.(i): accept reachable without consuming. *)
  let leaving = Array.make n_states [] in
  Array.iteri
    (fun i (s, _, _) -> leaving.(s) <- i :: leaving.(s))
    moves_arr;
  let followers = Array.make n_trans [] in
  let accept_after = Array.make n_trans false in
  Array.iteri
    (fun i (_, _, target) ->
      let closure = eps_closure_of.(target) in
      accept_after.(i) <- List.mem accept closure;
      followers.(i) <- List.concat_map (fun s -> leaving.(s)) closure)
    moves_arr;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n_trans - 1 do
      let k = kinds.(i) in
      let followers_admit flipped_is_node =
        List.exists
          (fun j ->
            let kj = kinds.(j) in
            if flipped_is_node then kj.k_node else kj.k_edge)
          followers.(i)
      in
      (* Consuming a node is feasible if we may stop here (final
         pathway element) or an edge-consuming transition follows. *)
      let node_ok = k.k_node && (accept_after.(i) || followers_admit false) in
      let edge_ok =
        k.k_edge && ((edge_final && accept_after.(i)) || followers_admit true)
      in
      if node_ok <> k.k_node || edge_ok <> k.k_edge then begin
        kinds.(i) <- { k_node = node_ok; k_edge = edge_ok };
        changed := true
      end
    done
  done;
  (moves_arr, kinds)

let compile ?(lead_skip = true) ?(trail_skip = true) ?(edge_final = false)
    ?(kind_of = fun _ -> None) r =
  let b = { next = 0; b_moves = []; b_eps = [] } in
  let s, t = build b r in
  let start_state =
    if lead_skip then begin
      let s' = fresh b in
      add_eps b s' s;
      add_move b s' Skip s;
      s'
    end
    else s
  in
  let accept =
    if trail_skip then begin
      let t' = fresh b in
      add_eps b t t';
      add_move b t Skip t';
      t'
    end
    else t
  in
  let n = b.next in
  let eps = Array.make n [] in
  List.iter (fun (x, y) -> eps.(x) <- y :: eps.(x)) b.b_eps;
  let moves_arr, kinds = infer_kinds ~kind_of ~edge_final n b.b_moves eps accept in
  let moves = Array.make n [] in
  Array.iteri
    (fun i (x, tr, y) -> moves.(x) <- (tr, kinds.(i), y) :: moves.(x))
    moves_arr;
  { n_states = n; moves; eps; start_state; accept }

let size t = t.n_states

let move_count t =
  Array.fold_left (fun acc ms -> acc + List.length ms) 0 t.moves

(* -- product pruning ------------------------------------------------- *)

(* The abstract side of the product automaton is supplied by the caller
   as an oracle over an opaque frontier domain ['f] (in practice: the
   schema-reachability abstract interpretation of [Nepal_analysis]). A
   step returning [None] means "no conforming element sequence can take
   this transition from here". *)
type 'f oracle = {
  o_start : 'f;
  o_step_match : 'f -> Rpe.atom -> is_node:bool -> 'f option;
  o_step_skip : 'f -> is_node:bool -> 'f option;
  o_join : 'f -> 'f -> 'f;
  o_equal : 'f -> 'f -> bool;
}

(* The oracle only ever reads an atom's class (never its predicates),
   so the pruning decisions for two automata with identical structure
   and classes are identical. [signature] canonicalizes exactly that
   class-level structure, letting callers memoize [prune_mask] results
   and replay them onto fresh automata (whose atoms carry the current
   query's predicates) with [apply_mask]. *)
let signature t =
  let b = Buffer.create 128 in
  Buffer.add_string b (string_of_int t.n_states);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int t.start_state);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int t.accept);
  Array.iter
    (fun ms ->
      Buffer.add_char b ';';
      List.iter
        (fun (tr, k, dst) ->
          (match tr with
          | Match a -> Buffer.add_string b a.Rpe.cls
          | Skip -> Buffer.add_char b '.');
          Buffer.add_char b (if k.k_node then 'n' else '-');
          Buffer.add_char b (if k.k_edge then 'e' else '-');
          Buffer.add_string b (string_of_int dst);
          Buffer.add_char b ' ')
        ms)
    t.moves;
  Array.iter
    (fun es ->
      Buffer.add_char b ';';
      List.iter
        (fun dst ->
          Buffer.add_string b (string_of_int dst);
          Buffer.add_char b ' ')
        es)
    t.eps;
  Buffer.contents b

(* A pruning verdict detached from the automaton it was computed on:
   per transition, [Some kinds] (kept, possibly narrowed) or [None]
   (dead), aligned positionally with [moves]/[eps]. *)
type prune_mask = {
  pm_signature : string;
  pm_moves : kinds option list array;
  pm_eps : bool list array;
}

(* Prune the automaton against the oracle: a forward dataflow pass
   associates with each NFA state the join of every abstract frontier
   reachable there (a monotone fixpoint over the finite abstract
   lattice), then transitions whose abstract step is dead are deleted,
   per-transition kinds are narrowed to the feasible kinds, and states
   that cannot reach the accept state through surviving transitions are
   stranded (all their transitions dropped). The result accepts exactly
   the subset of the original language realizable by data conforming to
   the oracle's schema — so walks of conforming stores are unchanged,
   while dead rounds and dead atom classes disappear from
   [outgoing_atoms]/[can_skip]. *)
let prune_mask (o : 'f oracle) t =
  let n = t.n_states in
  let fr : 'f option array = Array.make n None in
  fr.(t.start_state) <- Some o.o_start;
  let changed = ref true in
  let join_into idx f =
    match fr.(idx) with
    | None ->
        fr.(idx) <- Some f;
        changed := true
    | Some g ->
        let j = o.o_join g f in
        if not (o.o_equal j g) then begin
          fr.(idx) <- Some j;
          changed := true
        end
  in
  (* Abstract effect of one transition on one kind. *)
  let step_kind f tr ~is_node =
    match tr with
    | Match a -> o.o_step_match f a ~is_node
    | Skip -> o.o_step_skip f ~is_node
  in
  let step_all f (tr, (kinds : kinds), _) =
    let acc = ref None in
    let add = function
      | None -> ()
      | Some f' ->
          acc := Some (match !acc with None -> f' | Some g -> o.o_join g f')
    in
    if kinds.k_node then add (step_kind f tr ~is_node:true);
    if kinds.k_edge then add (step_kind f tr ~is_node:false);
    !acc
  in
  while !changed do
    changed := false;
    for s = 0 to n - 1 do
      match fr.(s) with
      | None -> ()
      | Some f ->
          List.iter (fun s' -> join_into s' f) t.eps.(s);
          List.iter
            (fun ((_, _, dst) as m) ->
              match step_all f m with None -> () | Some f' -> join_into dst f')
            t.moves.(s)
    done
  done;
  (* Narrow each surviving transition to its feasible kinds (kept
     positionally aligned with [t.moves] so the verdict can be replayed
     onto a structurally identical automaton). *)
  let refined =
    Array.init n (fun s ->
        List.map
          (fun (tr, (kinds : kinds), _dst) ->
            match fr.(s) with
            | None -> None
            | Some f ->
                let k =
                  {
                    k_node =
                      kinds.k_node && step_kind f tr ~is_node:true <> None;
                    k_edge =
                      kinds.k_edge && step_kind f tr ~is_node:false <> None;
                  }
                in
                if k.k_node || k.k_edge then Some k else None)
          t.moves.(s))
  in
  (* Backward liveness to the accept state over the surviving graph. *)
  let rev = Array.make n [] in
  for s = 0 to n - 1 do
    if fr.(s) <> None then begin
      List.iter (fun s' -> rev.(s') <- s :: rev.(s')) t.eps.(s);
      List.iter2
        (fun (_, _, dst) k -> if k <> None then rev.(dst) <- s :: rev.(dst))
        t.moves.(s) refined.(s)
    end
  done;
  let useful = Array.make n false in
  let rec mark s =
    if not useful.(s) then begin
      useful.(s) <- true;
      List.iter mark rev.(s)
    end
  in
  mark t.accept;
  let pm_moves =
    Array.init n (fun s ->
        List.map2
          (fun (_, _, dst) k ->
            if fr.(s) = None || not useful.(s) || not useful.(dst) then None
            else k)
          t.moves.(s) refined.(s))
  in
  let pm_eps =
    Array.init n (fun s ->
        List.map
          (fun dst -> fr.(s) <> None && useful.(s) && useful.(dst))
          t.eps.(s))
  in
  { pm_signature = signature t; pm_moves; pm_eps }

let apply_mask t pm =
  if pm.pm_signature <> signature t then
    invalid_arg "Nfa.apply_mask: automaton does not match the mask";
  let moves =
    Array.mapi
      (fun s ms ->
        List.concat
          (List.map2
             (fun (tr, _, dst) k ->
               match k with Some kk -> [ (tr, kk, dst) ] | None -> [])
             ms pm.pm_moves.(s)))
      t.moves
  in
  let eps =
    Array.mapi
      (fun s es ->
        List.concat
          (List.map2 (fun dst keep -> if keep then [ dst ] else []) es
             pm.pm_eps.(s)))
      t.eps
  in
  { t with moves; eps }

let prune (o : 'f oracle) t = apply_mask t (prune_mask o t)

(* -- simulation ----------------------------------------------------- *)

let eps_closure t states =
  let seen = Array.make t.n_states false in
  let rec visit s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter visit t.eps.(s)
    end
  in
  List.iter visit states;
  let acc = ref [] in
  for s = t.n_states - 1 downto 0 do
    if seen.(s) then acc := s :: !acc
  done;
  !acc

let start t = eps_closure t [ t.start_state ]

let kind_admits kinds ~is_node =
  if is_node then kinds.k_node else kinds.k_edge

let step_gen t ~matches ~skips ~is_node states =
  let next = ref [] in
  List.iter
    (fun s ->
      List.iter
        (fun (tr, kinds, s') ->
          if kind_admits kinds ~is_node then
            match tr with
            | Match a -> if matches a then next := s' :: !next
            | Skip -> if skips then next := s' :: !next)
        t.moves.(s))
    states;
  eps_closure t !next

let step t ~matches ~is_node states =
  step_gen t ~matches ~skips:true ~is_node states

let step_via t via ~is_node states =
  match via with
  | Match a -> step_gen t ~matches:(fun b -> b = a) ~skips:false ~is_node states
  | Skip -> step_gen t ~matches:(fun _ -> false) ~skips:true ~is_node states

let accepting t states = List.mem t.accept states

let outgoing_atoms t states =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun (tr, kinds, _) ->
          match tr with
          | Match a when kinds.k_node || kinds.k_edge -> Some a
          | Match _ | Skip -> None)
        t.moves.(s))
    states

let can_skip t ~is_node states =
  List.exists
    (fun s ->
      List.exists
        (fun (tr, kinds, _) ->
          match tr with Skip -> kind_admits kinds ~is_node | Match _ -> false)
        t.moves.(s))
    states

(* -- per-walk memoization ------------------------------------------- *)

module Memo = struct
  type nfa = t

  (* Distinct state sets per walk number in the tens while partials
     number in the thousands, so interning the sorted sets and keying
     the derived queries by the id collapses almost all recomputation.
     Not thread-safe: create one per walk (per domain). *)
  type t = {
    nfa : nfa;
    ids : (states, int) Hashtbl.t;
    mutable next_id : int;
    atoms : (int, Rpe.atom list) Hashtbl.t;
    skips : (int * bool, bool) Hashtbl.t;
    accepts : (int, bool) Hashtbl.t;
  }

  let create nfa =
    {
      nfa;
      ids = Hashtbl.create 32;
      next_id = 0;
      atoms = Hashtbl.create 32;
      skips = Hashtbl.create 32;
      accepts = Hashtbl.create 32;
    }

  (* State sets are sorted and duplicate-free (eps_closure emits them in
     ascending order), so structural equality is canonical. *)
  let id m states =
    match Hashtbl.find_opt m.ids states with
    | Some i -> i
    | None ->
        let i = m.next_id in
        m.next_id <- i + 1;
        Hashtbl.replace m.ids states i;
        i

  let outgoing_atoms m ~sid states =
    match Hashtbl.find_opt m.atoms sid with
    | Some a -> a
    | None ->
        let a = outgoing_atoms m.nfa states in
        Hashtbl.replace m.atoms sid a;
        a

  let can_skip m ~sid ~is_node states =
    match Hashtbl.find_opt m.skips (sid, is_node) with
    | Some b -> b
    | None ->
        let b = can_skip m.nfa ~is_node states in
        Hashtbl.replace m.skips (sid, is_node) b;
        b

  let accepting m ~sid states =
    match Hashtbl.find_opt m.accepts sid with
    | Some b -> b
    | None ->
        let b = accepting m.nfa states in
        Hashtbl.replace m.accepts sid b;
        b
end

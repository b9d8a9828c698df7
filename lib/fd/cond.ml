open Store

let disjoint a b = Dom.disjoint (dom a) (dom b)

(* Core of [p = q ==> l = m]; shared with the guarded variant.  Returns
   [true] when the implication is entailed (safe to stop watching):
   either the antecedent can never hold, or the consequent already
   holds in every remaining assignment. *)
let implication_step st (p, q) (l, m) =
  if disjoint p q then true
  else if is_fixed l && is_fixed m && value l = value m then true
  else if is_fixed p && is_fixed q && value p = value q then begin
    let joint = Dom.inter (dom l) (dom m) in
    update st l joint;
    update st m joint;
    (* both sides now hold the same singleton: consequent decided *)
    Dom.is_singleton joint
  end
  else if disjoint l m then begin
    (* Contrapositive: lines can never be equal, so pages must differ.
       The removal below makes [p] and [q] disjoint, so the implication
       holds vacuously from here on. *)
    if is_fixed p then begin
      remove_value st q (value p);
      true
    end
    else if is_fixed q then begin
      remove_value st p (value q);
      true
    end
    else false
  end
  else false

(* [implication_step] over every pair, in order and without
   short-circuit (each call may prune): [true] iff all are decided. *)
let rec steps st = function
  | [] -> true
  | (pq, lm) :: rest ->
    let decided = implication_step st pq lm in
    steps st rest && decided

(* Wake events: every pruning of the implication needs [p] or [q] fixed
   (enforcement needs both, the contrapositive needs one), so the
   antecedent pair subscribes with [On_fix] — narrowings of a start/page
   variable that do not fix it can never enable a prune here and used to
   account for the bulk of this propagator's wakes.  The consequent pair
   keeps [On_change]: the contrapositive fires on disjointness, which
   any narrowing can establish. *)
let implies_eq s ((p, q) as pq) ((l, m) as lm) =
  let prop st = if implication_step st pq lm then entail_now st in
  ignore
    (post_now_on s ~name:"implies_eq" ~priority:prio_channel
       ~watches:[ (On_fix, p); (On_fix, q); (On_change, l); (On_change, m) ]
       prop);
  propagate s

(* Staged subscription.  Until the guard pair is fixed the body cannot
   prune (every branch below requires both guard values known), so the
   propagator initially watches {e only} the guard with [On_fix] and
   stays off the watcher lists of the page/line variables entirely —
   those are the high-traffic variables of the model, and wakes from
   them while the guard is open were pure overhead (1.5M wakes / 0
   prunes on MATMUL).  The first run with the guard fixed either
   entails (unequal singletons are disjoint) or widens the watch set to
   the consequent variables via [resubscribe_now]; the rewrite is
   trailed, so backtracking above the fixing decision restores the
   guard-only trigger set.

   Batching: all implications sharing one guard pair (every read pair
   of an op pair, eq. 8) live in a single propagator.  A guard fix then
   wakes one propagator instead of |reads_i| * |reads_j| copies, and
   since [implication_step] is stateless the batch needs no per-pair
   trailing — entailment is simply "every pair decided". *)
let guarded_implies_eq_all s ~guard:(a, b) pairs =
  let full =
    List.concat_map
      (fun ((p, q), (l, m)) ->
        [ (On_fix, p); (On_fix, q); (On_change, l); (On_change, m) ])
      pairs
  in
  let prop st =
    if disjoint a b then entail_now st
    else if is_fixed a && is_fixed b then begin
      (* both fixed and not disjoint: the guard values are equal and
         every implication in the batch is live from here on *)
      resubscribe_now st full;
      (* run the step on every pair (no short-circuit: each call may
         prune); entailed only once all of them are decided *)
      if steps st pairs then entail_now st
    end
  in
  ignore
    (post_now_on s ~name:"guarded_implies_eq" ~priority:prio_channel
       ~watches:[ (On_fix, a); (On_fix, b) ] prop);
  propagate s

let guarded_implies_eq s ~guard pq lm = guarded_implies_eq_all s ~guard [ (pq, lm) ]

(* A partner's guard holds: [b] fixed at [a]'s value ([a] fixed). *)
let active a b = is_fixed b && value b = value a

(* How many partners' guards hold. *)
let rec count_active a = function
  | [] -> 0
  | (b, _) :: rest -> (if active a b then 1 else 0) + count_active a rest

(* Check every partner's pairs (in order, no short-circuit): [true] iff
   every guard is refuted or every pair under it decided. *)
let rec check_partners st a = function
  | [] -> true
  | (b, pairs) :: rest ->
    let decided =
      if disjoint a b then true (* guard refuted: pairs vacuous *)
      else if is_fixed b then
        (* fixed and not disjoint: guard holds, implications live *)
        steps st pairs
      else false
    in
    check_partners st a rest && decided

(* Hub form: one propagator per operation covering all of its guarded
   pairs, watching only the operation's {e own} start variable.  A node
   decision that fixes one start then wakes a single hub instead of one
   propagator per partner; the hub scans its partner list and checks
   the pairs whose guard is now decided.  Coverage is symmetric — pair
   (i, j) is rechecked both when [start i] fixes (by hub i) and when
   [start j] fixes (by hub j) — which is exactly the trigger set the
   per-pair propagator had, so filtering is unchanged.  Once some
   partner guard holds, the hub widens its watch set to the page/line
   variables of the active pairs (cached by backtrack generation and
   active count, both monotone within a subtree, so re-runs reuse the
   same physical list and [resubscribe] no-ops). *)
let guarded_implies_eq_hub s a partners =
  let base = [ (On_fix, a) ] in
  let pair_watches ((p, q), (l, m)) =
    [ (On_fix, p); (On_fix, q); (On_change, l); (On_change, m) ]
  in
  let c_gen = ref (-1) and c_nact = ref 0 and c_watches = ref base in
  let prop st =
    if is_fixed a then begin
      let nact = count_active a partners in
      if generation st <> !c_gen || nact <> !c_nact then begin
        c_gen := generation st;
        c_nact := nact;
        c_watches :=
          (if nact = 0 then base
           else
             base
             @ List.concat_map
                 (fun (b, pairs) ->
                   if active a b then List.concat_map pair_watches pairs
                   else [])
                 partners)
      end;
      resubscribe_now st !c_watches;
      if check_partners st a partners then entail_now st
    end
  in
  ignore
    (post_now_on s ~name:"guarded_implies_eq" ~priority:prio_channel
       ~watches:base prop);
  propagate s

let same_guard_neq s ~guard:(a, b) x y =
  let prop st =
    if disjoint a b then entail_now st
    else if is_fixed a && is_fixed b && value a = value b then begin
      if is_fixed x then begin
        remove_value st y (value x);
        entail_now st
      end
      else if is_fixed y then begin
        remove_value st x (value y);
        entail_now st
      end
    end
  in
  ignore
    (post_now_on s ~name:"same_guard_neq" ~priority:prio_channel
       ~watches:[ (On_fix, a); (On_fix, b); (On_fix, x); (On_fix, y) ]
       prop);
  propagate s

(* Entailment soundness: skipping an entailed propagator must never
   change the fixpoint, and backtracking past the entailment point must
   revive it.

   Two oracles on random models (arithmetic, conditional and cumulative
   constraints under a random narrow/push/pop script):

   - A/B: the same script on a store with entailment disabled
     ([Store.set_entail s false]) must fail at the same step and reach
     the same domains — entailment removal only skips propagators that
     can never prune again.
   - Fresh-store: re-posting the same constraints over the final
     domains in a brand-new store (no entailment, no incremental
     caches, no pending indices) must not prune anything further —
     i.e. the incremental engine really did reach the fixpoint. *)

open Fd

(* ---------------- random models ---------------- *)

type op = Assign | Remove | Push | Pop

(* One constraint descriptor: a kind selector plus raw integer
   arguments mapped onto the store's variables. *)
let post_constraint s vars (kind, args) =
  let n = Array.length vars in
  let v i = vars.(List.nth args i mod n) in
  let c i = (List.nth args i mod 5) - 2 in
  match kind mod 7 with
  | 0 -> Arith.leq_offset s (v 0) (c 2) (v 1)
  | 1 -> Arith.neq_offset s (v 0) (c 2) (v 1)
  | 2 -> Arith.plus s (v 0) (v 1) (v 2)
  | 3 -> Arith.max_of s [ v 0; v 1; v 2 ] (v 3)
  | 4 -> Cond.implies_eq s (v 0, v 1) (v 2, v 3)
  | 5 -> Cond.guarded_implies_eq s ~guard:(v 0, v 1) (v 2, v 3) (v 4, v 5)
  | _ ->
    Cumulative.post s
      ~starts:[| v 0; v 1; v 2 |]
      ~durations:[| 1; 2; 1 |] ~resources:[| 1; 1; 1 |] ~limit:2

(* Run the script; return the index of the failing step, if any.  The
   step decisions (which value to assign/remove) are taken from the
   store's current domains, which are identical across stores as long
   as the engines agree — and if they ever disagree, the final domain
   comparison fails, which is exactly what the oracle looks for. *)
let run_script s vars steps =
  let depth = ref 0 in
  let apply (op, a, b) =
    let v = vars.(a mod Array.length vars) in
    match op with
    | Assign ->
      let xs = Dom.to_list (Store.dom v) in
      Store.assign s v (List.nth xs (b mod List.length xs));
      Store.propagate s
    | Remove ->
      let xs = Dom.to_list (Store.dom v) in
      Store.remove_value s v (List.nth xs (b mod List.length xs));
      Store.propagate s
    | Push ->
      Store.push_level s;
      incr depth
    | Pop ->
      if !depth > 0 then begin
        Store.pop_level s;
        decr depth
      end
  in
  let rec go i = function
    | [] -> None
    | st :: rest -> (
      match apply st with
      | () -> go (i + 1) rest
      | exception Store.Fail _ -> Some i)
  in
  go 0 steps

let doms_of vars = Array.map (fun v -> Store.dom v) vars

let same_doms a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun d e -> Dom.equal d e) a b

let gen_case =
  QCheck2.Gen.(
    let* n = int_range 4 6 in
    let* doms = list_repeat n (list_size (int_range 1 5) (int_range 0 8)) in
    let* ncons = int_range 1 5 in
    let* cons =
      list_repeat ncons (pair (int_range 0 6) (list_repeat 6 (int_range 0 97)))
    in
    let* steps =
      list_size (int_range 0 14)
        (triple (int_range 0 3) (int_range 0 96) (int_range 0 95))
    in
    let steps =
      List.map
        (fun (o, a, b) ->
          ((match o with 0 -> Assign | 1 -> Remove | 2 -> Push | _ -> Pop), a, b))
        steps
    in
    return (doms, cons, steps))

(* Build a store over [doms], post [cons]; None if posting fails. *)
let build ?(entail = true) doms cons =
  let s = Store.create () in
  Store.set_entail s entail;
  let vars =
    Array.of_list
      (List.map
         (fun d -> Store.new_var s (Dom.of_list (List.sort_uniq compare d)))
         doms)
  in
  match List.iter (post_constraint s vars) cons with
  | () -> Some (s, vars)
  | exception Store.Fail _ -> None

let print_case (doms, cons, steps) =
  let il l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]" in
  Printf.sprintf "doms=%s cons=%s steps=%s"
    (String.concat " " (List.map il doms))
    (String.concat " "
       (List.map (fun (k, args) -> Printf.sprintf "(%d,%s)" k (il args)) cons))
    (String.concat " "
       (List.map
          (fun (o, a, b) ->
            Printf.sprintf "(%s,%d,%d)"
              (match o with
              | Assign -> "A"
              | Remove -> "R"
              | Push -> "U"
              | Pop -> "O")
              a b)
          steps))

let ab_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"fixpoint with entailment = without" ~count:400
       ~print:print_case gen_case (fun (doms, cons, steps) ->
         match (build ~entail:true doms cons, build ~entail:false doms cons) with
         | None, None -> true
         | Some _, None | None, Some _ -> false
         | Some (s1, v1), Some (s2, v2) -> (
           match (run_script s1 v1 steps, run_script s2 v2 steps) with
           | Some i, Some j -> i = j
           | Some _, None | None, Some _ -> false
           | None, None -> same_doms (doms_of v1) (doms_of v2))))

let fresh_store_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"incremental fixpoint = fresh-store fixpoint"
       ~count:400 gen_case (fun (doms, cons, steps) ->
         match build doms cons with
         | None -> true
         | Some (s1, v1) -> (
           match run_script s1 v1 steps with
           | Some _ -> true (* failed mid-script: state is not a fixpoint *)
           | None -> (
             (* replay the final domains into a brand-new store: nothing
                may prune further *)
             let final = doms_of v1 in
             let s2 = Store.create () in
             let v2 = Array.map (fun d -> Store.new_var s2 d) final in
             match List.iter (post_constraint s2 v2) cons with
             | () -> same_doms final (doms_of v2)
             | exception Store.Fail _ -> false))))

(* ---------------- backtrack revival ---------------- *)

(* A propagator entailed at depth k must fire again after backtracking
   above k: neq entails once one side is fixed, yet must still prune
   for a different fixed value on the sibling branch. *)
let test_neq_revival () =
  let s = Store.create () in
  let x = Store.interval_var s 0 5 and y = Store.interval_var s 0 5 in
  Arith.neq s x y;
  Store.propagate s;
  Store.push_level s;
  Store.assign s x 3;
  Store.propagate s;
  Alcotest.(check bool) "3 pruned from y" false (Dom.mem 3 (Store.dom y));
  Store.pop_level s;
  Alcotest.(check bool) "3 restored in y" true (Dom.mem 3 (Store.dom y));
  Store.push_level s;
  Store.assign s x 4;
  Store.propagate s;
  Alcotest.(check bool) "fires again after backtrack: 4 pruned" false
    (Dom.mem 4 (Store.dom y))

(* guarded_implies_eq refuted by its guard at depth k must enforce the
   implication on a sibling branch where the guard holds. *)
let test_guarded_revival () =
  let s = Store.create () in
  let a = Store.interval_var s 0 3 and b = Store.interval_var s 0 3 in
  let p = Store.interval_var s 0 3 and q = Store.interval_var s 0 3 in
  let l = Store.interval_var s 0 2 and m = Store.interval_var s 1 3 in
  Cond.guarded_implies_eq s ~guard:(a, b) (p, q) (l, m);
  Store.propagate s;
  Store.push_level s;
  Store.assign s a 0;
  Store.assign s b 1;
  Store.propagate s;
  (* guard refuted: nothing else constrained *)
  Alcotest.(check int) "l untouched" 0 (Store.vmin l);
  Store.pop_level s;
  Store.push_level s;
  Store.assign s a 2;
  Store.assign s b 2;
  Store.assign s p 1;
  Store.assign s q 1;
  Store.propagate s;
  (* guard and antecedent hold: l = m enforced (dom l = dom m = [1..2]) *)
  Alcotest.(check int) "l min raised" 1 (Store.vmin l);
  Alcotest.(check int) "m max lowered" 2 (Store.vmax m)

(* Buckets are reversible: an accessor placed at cycle 1 below a choice
   point is gone after backtracking, so on the sibling branch, where
   the two accessors run in different cycles, nothing is enforced. *)
let test_access_buckets_backtrack () =
  let s = Store.create () in
  let a = Store.interval_var s 0 3 and b = Store.interval_var s 0 3 in
  let p = Store.const s 0 and q = Store.const s 0 in
  let l = Store.interval_var s 0 3 and m = Store.interval_var s 0 3 in
  Cond.guarded_implies_eq s ~guard:(a, b) (p, q) (l, m);
  Store.push_level s;
  Store.assign s a 1;
  Store.propagate s;
  Store.pop_level s;
  Store.push_level s;
  Store.assign s b 1;
  Store.assign s m 2;
  Store.propagate s;
  Alcotest.(check int) "l untouched" 0 (Store.vmin l);
  Store.assign s a 1;
  Store.propagate s;
  Alcotest.(check int) "same cycle: l forced" 2 (Store.value l)

(* The contrapositive of an armed pair (both starts placed in one
   cycle's bucket), disarmed when backtracking takes the starts out of
   their reversible buckets, and re-derived on a sibling branch with
   different values. *)
let test_staged_contrapositive () =
  let s = Store.create () in
  let a = Store.interval_var s 0 3 and b = Store.interval_var s 0 3 in
  let p = Store.interval_var s 0 3 and q = Store.interval_var s 0 3 in
  let l = Store.interval_var s 0 3 and m = Store.interval_var s 0 3 in
  Cond.guarded_implies_eq s ~guard:(a, b) (p, q) (l, m);
  Store.propagate s;
  Store.push_level s;
  Store.assign s a 1;
  Store.assign s b 1;
  Store.assign s p 2;
  Store.propagate s;
  Store.push_level s;
  (* make l and m disjoint: l in {0,1}, m in {2,3} *)
  Store.remove_above s l 1;
  Store.remove_below s m 2;
  Store.propagate s;
  Alcotest.(check bool) "contrapositive: q <> p" false
    (Dom.mem 2 (Store.dom q));
  Store.pop_level s;
  Store.pop_level s;
  Alcotest.(check bool) "q restored" true (Dom.mem 2 (Store.dom q));
  Store.push_level s;
  Store.assign s a 3;
  Store.assign s b 3;
  Store.assign s q 0;
  Store.propagate s;
  Store.remove_above s m 1;
  Store.remove_below s l 2;
  Store.propagate s;
  Alcotest.(check bool) "contrapositive after backtracking: p <> q" false
    (Dom.mem 0 (Store.dom p))

(* Coverage is symmetric: pair (i, j) is enforced whichever start
   fixes last.  The per-operation hubs that had to be posted both ways
   for this are one access global now: a newly fixed start is checked
   against the starts already in its cycle's bucket. *)
let test_hub_symmetry () =
  let check_order first_b =
    let s = Store.create () in
    let a = Store.interval_var s 0 3 and b = Store.interval_var s 0 3 in
    let p = Store.interval_var s 0 3 and q = Store.interval_var s 0 3 in
    let l = Store.interval_var s 0 2 and m = Store.interval_var s 1 3 in
    Cond.guarded_implies_eq s ~guard:(a, b) (p, q) (l, m);
    Store.propagate s;
    Store.push_level s;
    if first_b then Store.assign s b 2 else Store.assign s a 2;
    Store.propagate s;
    if first_b then Store.assign s a 2 else Store.assign s b 2;
    Store.assign s p 0;
    Store.assign s q 0;
    Store.propagate s;
    Alcotest.(check int) "l = m enforced (min)" 1 (Store.vmin l);
    Alcotest.(check int) "l = m enforced (max)" 2 (Store.vmax m)
  in
  check_order false;
  check_order true

let suite =
  [
    ab_oracle;
    fresh_store_oracle;
    Alcotest.test_case "neq revives after backtrack" `Quick test_neq_revival;
    Alcotest.test_case "guarded_implies_eq revives" `Quick test_guarded_revival;
    Alcotest.test_case "access buckets follow backtracking" `Quick
      test_access_buckets_backtrack;
    Alcotest.test_case "staged contrapositive + disarm" `Quick
      test_staged_contrapositive;
    Alcotest.test_case "hub symmetric coverage" `Quick test_hub_symmetry;
  ]

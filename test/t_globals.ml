(* The scheduling model's four indexed globals against their pairwise
   references ([Reference]): Diff2 (eq. 11), configuration exclusion
   (eq. 3, [Arith.neq_classes]), the access rules (eqs. 8-9,
   [Cond.access]) and [Arith.max_of] (eqs. 5 and 10, whose offsets are
   checked against the copy variables they replace).

   Each property builds two stores over the same random domains, posts
   the global in one and the reference in the other at level 1 after a
   few narrowings, then drives both through the same random script of
   narrowings, assignments, push/pop and [reschedule_all].  After every
   step both must fail, or both must reach the same domains: the rules
   are the same monotone narrowings, so their greatest fixpoint is the
   same however the wakes are organized. *)

open Fd

type op =
  | Push
  | Pop
  | Resched
  | Narrow of (int * int * int)  (* var, kind, value *)

let gen_script ~nvars ~hi =
  QCheck2.Gen.(
    let narrow = triple (int_bound (nvars - 1)) (int_bound 4) (int_range 0 hi) in
    let* pre = list_size (int_range 0 3) narrow in
    let* ops =
      list_size (int_range 1 24)
        (frequency
           [
             (2, pure Push);
             (2, pure Pop);
             (1, pure Resched);
             (6, map (fun t -> Narrow t) narrow);
           ])
    in
    return (pre, ops))

let print_script (pre, ops) =
  let narrow (i, k, v) = Printf.sprintf "narrow(%d,%d,%d)" i k v in
  let op = function
    | Push -> "push"
    | Pop -> "pop"
    | Resched -> "resched"
    | Narrow t -> narrow t
  in
  Printf.sprintf "pre=[%s] ops=[%s]"
    (String.concat ";" (List.map narrow pre))
    (String.concat ";" (List.map op ops))

(* [doms] are the variables' initial domains; [global] and [reference]
   post over the variable array of their store. *)
let agree ~doms ~global ~reference (pre, ops) =
  let s1 = Store.create () and s2 = Store.create () in
  let v1 = Array.map (Store.new_var s1) doms and v2 = Array.map (Store.new_var s2) doms in
  (* one narrowing, chosen from the first store's domain (the stores
     agree whenever one is applied), on the same variable of each; it
     never empties the domain *)
  let narrow (i, kind, v) =
    let x = v1.(i) in
    let both f =
      f s1 v1.(i);
      f s2 v2.(i)
    in
    match kind with
    | 0 -> if v <= Store.vmax x then both (fun s y -> Store.remove_below s y v)
    | 1 -> if v >= Store.vmin x then both (fun s y -> Store.remove_above s y v)
    | 2 -> if not (Store.is_fixed x) then both (fun s y -> Store.remove_value s y v)
    | 3 -> if Dom.mem v (Store.dom x) then both (fun s y -> Store.assign s y v)
    | _ ->
      if Dom.meets v (v + 1) (Store.dom x) then
        both (fun s y ->
            Store.remove_below s y v;
            Store.remove_above s y (v + 1))
  in
  let same () =
    Array.for_all2 (fun x y -> Dom.equal (Store.dom x) (Store.dom y)) v1 v2
  in
  let ok f s vars = match f s vars with () -> true | exception Store.Fail _ -> false in
  let dead = ref false in
  (* run [f] on both stores: both fail (popping one level, or ending
     the script at the root) or both reach the same domains *)
  let rec settle f =
    let ok1 = ok f s1 v1 and ok2 = ok f s2 v2 in
    if ok1 <> ok2 then false
    else if ok1 then same ()
    else if Store.level s1 = 0 then begin
      dead := true;
      true
    end
    else pop ()
  and pop () =
    Store.pop_level s1;
    Store.pop_level s2;
    (* below level 1 the posts' prunings are undone: re-run them *)
    if Store.level s1 = 0 then settle resched else true
  and resched s _ =
    Store.reschedule_all s;
    Store.propagate s
  in
  Store.push_level s1;
  Store.push_level s2;
  List.iter narrow pre;
  (* a post that fails may leave a reference half posted (a pairwise
     form posts, and propagates, pair by pair): the script ends there *)
  (match (ok global s1 v1, ok reference s2 v2) with
  | true, true -> same ()
  | false, false ->
    dead := true;
    true
  | _ -> false)
  && List.for_all
       (function
         | _ when !dead -> true
         | Push ->
           Store.push_level s1;
           Store.push_level s2;
           true
         | Pop -> Store.level s1 = 0 || pop ()
         | Resched -> settle resched
         | Narrow t ->
           narrow t;
           settle (fun s _ -> Store.propagate s))
       ops

let property ~name ~count ?collect gen print check =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print ?collect gen check)

(* ---------------- eq. 11: Diff2 ---------------- *)

(* rectangle r owns variables 4r .. 4r+3: ox, oy, lx, ly.  Half the
   cases draw every height >= 1 and every y-domain at least 2 wide:
   they start in a state where no pair can prune ([Diff2.post]'s quiet
   test), which the script's narrowings then leave. *)
let gen_diff2 =
  QCheck2.Gen.(
    let* n = int_range 2 4 in
    let* quiet = bool in
    let ys = if quiet then int_range 1 2 else int_range 0 2 in
    let height = if quiet then pure 1 else int_range 0 1 in
    let* shapes =
      list_repeat n
        (quad (int_range 1 6) ys (pair (int_range 0 2) (int_range 0 2))
           (pair height (int_range 0 1)))
    in
    let* script = gen_script ~nvars:(4 * n) ~hi:7 in
    return (shapes, script))

(* Does a case start quiet?  Every y-origin starts at 0, so the quiet
   test reads: the largest min height is at most the smallest max y. *)
let starts_quiet (shapes, _) =
  List.fold_left (fun acc (_, _, _, (k, _)) -> max acc k) 0 shapes
  <= List.fold_left (fun acc (_, ys, _, _) -> min acc ys) max_int shapes

let diff2_doms shapes =
  Array.of_list
    (List.concat_map
       (fun (h, ys, (l, lw), (k, kw)) ->
         [ Dom.interval 0 h; Dom.interval 0 ys; Dom.interval l (l + lw);
           Dom.interval k (k + kw) ])
       shapes)

let diff2_rects vars =
  List.init (Array.length vars / 4) (fun r ->
      { Diff2.ox = vars.(4 * r); oy = vars.((4 * r) + 1); lx = vars.((4 * r) + 2);
        ly = vars.((4 * r) + 3) })

let diff2_property =
  property ~name:"diff2 global fixpoints = pairwise reference" ~count:2000
    ~collect:(fun case -> if starts_quiet case then "starts quiet" else "not quiet")
    gen_diff2
    (fun (_, script) -> print_script script)
    (fun (shapes, script) ->
      agree ~doms:(diff2_doms shapes)
        ~global:(fun s vars -> Diff2.post s (diff2_rects vars))
        ~reference:(fun s vars -> Reference.diff2 s (diff2_rects vars))
        script)

(* The property above runs both kinds of case: 2,000 draws from a fixed
   seed hold at least a quarter of each. *)
let test_diff2_cases () =
  let cases =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 24 |]) ~n:2000 gen_diff2
  in
  let quiet = List.length (List.filter starts_quiet cases) in
  Alcotest.(check bool)
    (Printf.sprintf "%d of 2000 start quiet" quiet)
    true
    (quiet >= 500 && 2000 - quiet >= 500)

(* ---------------- eq. 3: configuration exclusion ---------------- *)

let gen_neq =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let* classes = list_repeat n (int_range 0 2) in
    let* widths = list_repeat n (int_range 0 4) in
    let* script = gen_script ~nvars:n ~hi:5 in
    return (classes, widths, script))

let neq_property =
  property ~name:"neq_classes fixpoints = pairwise neq reference" ~count:2000 gen_neq
    (fun (classes, _, script) ->
      Printf.sprintf "classes=[%s] %s"
        (String.concat ";" (List.map string_of_int classes))
        (print_script script))
    (fun (classes, widths, script) ->
      let classes = Array.of_list classes in
      agree
        ~doms:(Array.of_list (List.map (fun w -> Dom.interval 0 w) widths))
        ~global:(fun s vars -> Arith.neq_classes s ~classes vars)
        ~reference:(fun s vars -> Reference.neq_classes s ~classes vars)
        script)

(* ---------------- eqs. 8-9: access rules ---------------- *)

(* variables: na starts, then nd pages, then nd lines *)
let gen_access =
  QCheck2.Gen.(
    let* na = int_range 2 4 in
    let* nd = int_range 2 4 in
    let* acc = list_repeat na (list_size (int_range 1 2) (int_bound (nd - 1))) in
    let* classes = list_repeat na (int_range (-1) 1) in
    let* script = gen_script ~nvars:(na + (2 * nd)) ~hi:3 in
    return (na, nd, acc, classes, script))

let access_post post na nd acc classes s vars =
  post s
    ~pages:(Array.sub vars na nd) ~lines:(Array.sub vars (na + nd) nd)
    ~starts:(Array.sub vars 0 na)
    ~acc:(Array.of_list (List.map Array.of_list acc))
    ~classes:(Array.of_list classes)

let access_property =
  property ~name:"access global fixpoints = guarded-implication reference"
    ~count:2000 gen_access
    (fun (na, nd, acc, classes, script) ->
      Printf.sprintf "na=%d nd=%d acc=[%s] classes=[%s] %s" na nd
        (String.concat ";"
           (List.map (fun l -> String.concat "," (List.map string_of_int l)) acc))
        (String.concat ";" (List.map string_of_int classes))
        (print_script script))
    (fun (na, nd, acc, classes, script) ->
      agree
        ~doms:
          (Array.init (na + (2 * nd)) (fun i ->
               if i < na then Dom.interval 0 2
               else if i < na + nd then Dom.interval 0 1
               else Dom.interval 0 2))
        ~global:(fun s vars ->
          access_post (fun s -> Cond.access s) na nd acc classes s vars)
        ~reference:(fun s vars ->
          access_post (fun s -> Reference.access s) na nd acc classes s vars)
        script)

(* ---------------- eqs. 5 and 10: max_of ---------------- *)

(* variables: n arguments, then m; [xs] indexes the arguments and may
   repeat one *)
let gen_max =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    let* spans = list_repeat n (pair (int_range 0 4) (int_range 0 4)) in
    let* xs = list_size (int_range 1 4) (int_bound (n - 1)) in
    let* mlo = int_range 0 6 in
    let* script = gen_script ~nvars:(n + 1) ~hi:9 in
    return (spans, xs, mlo, script))

let max_property =
  property ~name:"max_of fixpoints = rescanning reference" ~count:2000 gen_max
    (fun (spans, xs, mlo, script) ->
      Printf.sprintf "spans=[%s] xs=[%s] m>=%d %s"
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d+%d" a b) spans))
        (String.concat ";" (List.map string_of_int xs))
        mlo (print_script script))
    (fun (spans, xs, mlo, script) ->
      let n = List.length spans in
      let doms =
        Array.of_list
          (List.map (fun (lo, w) -> Dom.interval lo (lo + w)) spans
          @ [ Dom.interval mlo 10 ])
      in
      let args vars = List.map (fun i -> vars.(i)) xs in
      agree ~doms
        ~global:(fun s vars -> Arith.max_of s (args vars) vars.(n))
        ~reference:(fun s vars -> Reference.max_of s (args vars) vars.(n))
        script)

(* variables: n arguments, then m; each term is an argument, which may
   repeat, and its offset *)
let gen_max_offsets =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    let* spans = list_repeat n (pair (int_range 0 4) (int_range 0 4)) in
    let* terms =
      list_size (int_range 1 4) (pair (int_bound (n - 1)) (int_range (-3) 7))
    in
    let* mlo = int_range (-3) 9 in
    let* script = gen_script ~nvars:(n + 1) ~hi:13 in
    return (spans, terms, mlo, script))

(* [max_of] with offsets against what eqs. 5 and 10 posted before it
   took them: a fresh copy c = x + o per term, tied by [Arith.eq_offset],
   under the rescanning reference.  A copy's domain is wider than any
   x + o, so only the equality narrows it. *)
let max_offsets_property =
  property ~name:"max_of with offsets = eq_offset copies + reference" ~count:2000
    gen_max_offsets
    (fun (spans, terms, mlo, script) ->
      Printf.sprintf "spans=[%s] terms=[%s] m>=%d %s"
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d+%d" a b) spans))
        (String.concat ";" (List.map (fun (i, o) -> Printf.sprintf "x%d%+d" i o) terms))
        mlo (print_script script))
    (fun (spans, terms, mlo, script) ->
      let n = List.length spans in
      let doms =
        Array.of_list
          (List.map (fun (lo, w) -> Dom.interval lo (lo + w)) spans
          @ [ Dom.interval mlo 16 ])
      in
      agree ~doms
        ~global:(fun s vars ->
          Arith.max_of s ~offsets:(List.map snd terms)
            (List.map (fun (i, _) -> vars.(i)) terms)
            vars.(n))
        ~reference:(fun s vars ->
          let copies =
            List.map
              (fun (i, o) ->
                let c = Store.interval_var s (-10) 30 in
                Arith.eq_offset s vars.(i) o c;
                c)
              terms
          in
          Reference.max_of s copies vars.(n))
        script)

(* ---------------- the model: one indexed global per family ----------- *)

(* blocked8's model carries a few propagators per op, not per pair: the
   eq. 3 exclusion, the eq. 8-9 access rules and eq. 11 are one
   propagator each, and eqs. 5 and 10 take their offsets in [max_of]
   instead of copy variables, so the only equalities left are eq. 4's,
   one per produced vector datum.  A scalar datum has no variable: it
   is read as its producer's start plus the producer's latency. *)
let test_model_size () =
  let merged g = (Eit_dsl.Merge.run g).Eit_dsl.Merge.graph in
  let g = merged (Eit_dsl.Dsl.graph (Apps.Matmul.build_blocked8 ()).Apps.Matmul.bctx) in
  let m = Sched.Model.build g Eit.Arch.default in
  let classes = Store.profile m.Sched.Model.store in
  let instances name =
    match List.find_opt (fun p -> p.Store.pr_name = name) classes with
    | Some p -> p.Store.pr_count
    | None -> 0
  in
  Alcotest.(check int) "one diff2" 1 (instances "diff2");
  Alcotest.(check int) "one eq. 3 exclusion" 1 (instances "neq_classes");
  Alcotest.(check int) "eq. 8 and eq. 9" 2 (instances "access");
  Alcotest.(check int) "no pairwise neq" 0 (instances "neq_offset");
  let produced =
    List.filter (fun d -> Eit_dsl.Ir.producer g d <> None) (Eit_dsl.Ir.data_nodes g)
  in
  let vectors =
    List.filter (fun d -> Eit_dsl.Ir.category g d = Eit_dsl.Ir.Vector_data) produced
  in
  Alcotest.(check (pair int int)) "produced data, vectors" (176, 48)
    (List.length produced, List.length vectors);
  Alcotest.(check int) "one eq_offset per produced vector datum" (List.length vectors)
    (instances "eq_offset");
  Alcotest.(check bool) "at most 1,000 propagators" true
    (Store.propagator_count m.Sched.Model.store <= 1_000)

let suite =
  [
    diff2_property;
    neq_property;
    access_property;
    max_property;
    max_offsets_property;
    Alcotest.test_case "diff2 cases: quiet and not" `Quick test_diff2_cases;
    Alcotest.test_case "model: one propagator per family" `Quick test_model_size;
  ]

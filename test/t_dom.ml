(* Domain representation: unit tests + properties against a sorted-list
   model of integer sets. *)

open Fd

let check_inv d = Alcotest.(check bool) "invariant" true (Dom.check_invariant d)

let test_interval () =
  let d = Dom.interval 1 5 in
  check_inv d;
  Alcotest.(check int) "size" 5 (Dom.size d);
  Alcotest.(check int) "min" 1 (Dom.min d);
  Alcotest.(check int) "max" 5 (Dom.max d);
  Alcotest.(check bool) "mem 3" true (Dom.mem 3 d);
  Alcotest.(check bool) "mem 6" false (Dom.mem 6 d);
  Alcotest.(check bool) "empty iv" true (Dom.is_empty (Dom.interval 5 1))

let test_remove () =
  let d = Dom.remove 3 (Dom.interval 1 5) in
  check_inv d;
  Alcotest.(check (list int)) "values" [ 1; 2; 4; 5 ] (Dom.to_list d);
  Alcotest.(check bool) "is_interval" false (Dom.is_interval d);
  let d2 = Dom.remove 1 (Dom.singleton 1) in
  Alcotest.(check bool) "empty" true (Dom.is_empty d2)

let test_remove_bounds () =
  let d = Dom.of_list [ 1; 2; 5; 6; 9 ] in
  Alcotest.(check (list int)) "below" [ 5; 6; 9 ] (Dom.to_list (Dom.remove_below 4 d));
  Alcotest.(check (list int)) "above" [ 1; 2; 5; 6 ] (Dom.to_list (Dom.remove_above 7 d));
  Alcotest.(check (list int)) "interval" [ 1; 9 ] (Dom.to_list (Dom.remove_interval 2 6 d))

let test_empty_access () =
  Alcotest.check_raises "min" Dom.Empty_domain (fun () -> ignore (Dom.min Dom.empty));
  Alcotest.check_raises "max" Dom.Empty_domain (fun () -> ignore (Dom.max Dom.empty))

let test_merge_adjacent () =
  (* of_list must merge adjacent values into one interval *)
  let d = Dom.of_list [ 3; 1; 2 ] in
  Alcotest.(check bool) "single interval" true (Dom.is_interval d);
  Alcotest.(check int) "size" 3 (Dom.size d);
  let u = Dom.of_intervals [ (1, 3); (4, 6) ] in
  Alcotest.(check bool) "adjacent intervals merge" true (Dom.is_interval u)

let test_shift () =
  let d = Dom.of_list [ 1; 3; 4 ] in
  Alcotest.(check (list int)) "shift" [ 11; 13; 14 ] (Dom.to_list (Dom.shift 10 d))

(* ---------------- properties ---------------- *)

let gen_dom =
  QCheck2.Gen.(
    let* vals = list_size (int_bound 12) (int_range (-20) 20) in
    return (Dom.of_list vals, List.sort_uniq compare vals))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:500 gen f)

let props =
  [
    prop "of_list = sorted set" gen_dom (fun (d, model) ->
        Dom.to_list d = model && Dom.check_invariant d);
    prop "inter is set intersection"
      QCheck2.Gen.(pair gen_dom gen_dom)
      (fun ((d1, m1), (d2, m2)) ->
        let inter = Dom.inter d1 d2 in
        Dom.check_invariant inter
        && Dom.to_list inter = List.filter (fun v -> List.mem v m2) m1);
    prop "remove removes exactly one value"
      QCheck2.Gen.(pair gen_dom (int_range (-20) 20))
      (fun ((d, m), v) ->
        Dom.to_list (Dom.remove v d) = List.filter (fun x -> x <> v) m);
    prop "size agrees with to_list" gen_dom (fun (d, m) ->
        Dom.size d = List.length m);
    prop "filter = list filter" gen_dom (fun (d, m) ->
        let p x = x mod 3 = 0 in
        Dom.to_list (Dom.filter p d) = List.filter p m);
    prop "fold counts" gen_dom (fun (d, m) ->
        Dom.fold (fun acc _ -> acc + 1) 0 d = List.length m);
  ]

(* The identity contract: operations that remove nothing return their
   argument physically.  Cumulative's [!=] change detection and the
   no-op [Store.commit] (answered by [==] in [Dom.equal]) rely on it. *)
let gen_identity =
  QCheck2.Gen.(
    let* d, m = gen_dom in
    (* [b]: often a superset of [d], so both identity cases occur *)
    let* extra, me = gen_dom in
    let* widen = bool in
    let b, mb =
      if widen then
        let mb = List.sort_uniq compare (m @ me) in
        (Dom.of_list mb, mb)
      else (extra, me)
    in
    let* k = int_range 1 4 and* r = int_range 0 3 in
    let* v = int_range (-22) 22 and* shift = int_range (-5) 5 in
    return ((d, m), (b, mb), (k, r), v, shift))

let identity_contract =
  prop "identity contract: inter/filter/remove/disjoint/equal_shift"
    gen_identity
    (fun ((d, m), (b, mb), (k, r), v, shift) ->
      let same d' m' = Dom.check_invariant d' && Dom.to_list d' = m' in
      (* inter *)
      let i = Dom.inter d b and mi = List.filter (fun x -> List.mem x mb) m in
      let i' = Dom.inter b d in
      let arg x = x == d || x == b in
      same i mi && same i' mi
      && ((mi <> m && mi <> mb) || (arg i && arg i'))
      && Dom.inter d d == d
      (* filter: rejects the values = r mod k (nothing when k > 3) *)
      && (let p x = k > 3 || ((x mod k) + k) mod k <> r in
          let f = Dom.filter p d and mf = List.filter p m in
          same f mf && (mf <> m || f == d))
      && Dom.filter (fun _ -> true) d == d
      (* remove *)
      && (let rm = Dom.remove v d in
          same rm (List.filter (( <> ) v) m) && (List.mem v m || rm == d))
      (* allocation-free predicates *)
      && Dom.disjoint d b = (mi = [])
      && Dom.equal_shift shift d (Dom.shift shift d)
      && Dom.equal_shift shift d b = (List.map (( + ) shift) m = mb))

let suite =
  [
    Alcotest.test_case "interval basics" `Quick test_interval;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "remove bounds" `Quick test_remove_bounds;
    Alcotest.test_case "empty access raises" `Quick test_empty_access;
    Alcotest.test_case "adjacent merge" `Quick test_merge_adjacent;
    Alcotest.test_case "shift" `Quick test_shift;
  ]
  @ props @ [ identity_contract ]

(* Arithmetic constraints checked against brute-force enumeration: the
   solutions reachable through propagation + search must be exactly the
   assignments satisfying the constraint's mathematical definition. *)

open Fd

(* Enumerate all solutions of the store over [vars] by exhaustive
   labelling with propagation. *)
let all_solutions s vars =
  let sols = ref [] in
  let rec go = function
    | [] -> sols := List.map Store.value vars :: !sols
    | v :: rest ->
      if Store.is_fixed v then go rest
      else
        List.iter
          (fun k ->
            Store.push_level s;
            (try
               Store.assign s v k;
               Store.propagate s;
               go rest
             with Store.Fail _ -> ());
            Store.pop_level s)
          (Dom.to_list (Store.dom v))
  in
  (try
     Store.propagate s;
     go vars
   with Store.Fail _ -> ());
  List.sort compare !sols

(* Brute force over the ORIGINAL domains. *)
let brute domains pred =
  let rec go acc = function
    | [] -> if pred (List.rev acc) then [ List.rev acc ] else []
    | d :: rest -> List.concat_map (fun v -> go (v :: acc) rest) d
  in
  List.sort compare (go [] domains)

(* One randomized comparison: build fresh store with [k] vars over the
   given domains, post the constraint, compare solution sets. *)
let oracle_test ~name ~vars:k ~post ~pred =
  let gen =
    QCheck2.Gen.(
      list_repeat k (list_size (int_range 1 4) (int_range (-6) 6)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:200 gen (fun raw_domains ->
         let domains = List.map (List.sort_uniq compare) raw_domains in
         let s = Store.create () in
         let vars = List.map (fun d -> Store.new_var s (Dom.of_list d)) domains in
         match post s vars with
         | () -> all_solutions s vars = brute domains pred
         | exception Store.Fail _ ->
           (* Root propagation failed: there must be no solution. *)
           brute domains pred = []))

let two f = function [ a; b ] -> f a b | _ -> assert false
let three f = function [ a; b; c ] -> f a b c | _ -> assert false

let oracles =
  [
    oracle_test ~name:"leq_offset (x+2<=y)" ~vars:2
      ~post:(fun s -> two (fun x y -> Arith.leq_offset s x 2 y))
      ~pred:(two (fun x y -> x + 2 <= y));
    oracle_test ~name:"lt" ~vars:2
      ~post:(fun s -> two (Arith.lt s))
      ~pred:(two (fun x y -> x < y));
    oracle_test ~name:"eq_offset (y=x+3)" ~vars:2
      ~post:(fun s -> two (fun x y -> Arith.eq_offset s x 3 y))
      ~pred:(two (fun x y -> y = x + 3));
    oracle_test ~name:"neq" ~vars:2
      ~post:(fun s -> two (Arith.neq s))
      ~pred:(two (fun x y -> x <> y));
    oracle_test ~name:"neq_offset (x+1<>y)" ~vars:2
      ~post:(fun s -> two (fun x y -> Arith.neq_offset s x 1 y))
      ~pred:(two (fun x y -> x + 1 <> y));
    oracle_test ~name:"plus (z=x+y)" ~vars:3
      ~post:(fun s -> three (Arith.plus s))
      ~pred:(three (fun x y z -> z = x + y));
    oracle_test ~name:"max_of" ~vars:3
      ~post:(fun s -> three (fun x y m -> Arith.max_of s [ x; y ] m))
      ~pred:(three (fun x y m -> m = max x y));
    oracle_test ~name:"linear_leq (2x - y <= 3)" ~vars:2
      ~post:(fun s -> two (fun x y -> Arith.linear_leq s [ (2, x); (-1, y) ] 3))
      ~pred:(two (fun x y -> (2 * x) - y <= 3));
    oracle_test ~name:"linear_eq (x + 2y = 4)" ~vars:2
      ~post:(fun s -> two (fun x y -> Arith.linear_eq s [ (1, x); (2, y) ] 4))
      ~pred:(two (fun x y -> x + (2 * y) = 4));
    oracle_test ~name:"sum" ~vars:3
      ~post:(fun s -> three (fun x y t -> Arith.sum s [ x; y ] t))
      ~pred:(three (fun x y t -> t = x + y));
  ]

(* mod needs non-negative operands. *)
let mod_oracle =
  let gen =
    QCheck2.Gen.(list_repeat 2 (list_size (int_range 1 4) (int_range 0 20)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"mod_const (r=x mod 5)" ~count:200 gen (fun raw ->
         let domains = List.map (List.sort_uniq compare) raw in
         let s = Store.create () in
         let vars = List.map (fun d -> Store.new_var s (Dom.of_list d)) domains in
         match vars with
         | [ x; r ] -> (
           match Arith.mod_const s x 5 r with
           | () -> all_solutions s vars = brute domains (two (fun x r -> r = x mod 5))
           | exception Store.Fail _ ->
             brute domains (two (fun x r -> r = x mod 5)) = [])
         | _ -> assert false))

let test_propagation_strength () =
  (* leq chain: x + 1 <= y, y + 1 <= z with z <= 2 forces x = 0 *)
  let s = Store.create () in
  let x = Store.interval_var s 0 9 in
  let y = Store.interval_var s 0 9 in
  let z = Store.interval_var s 0 2 in
  Arith.leq_offset s x 1 y;
  Arith.leq_offset s y 1 z;
  Store.propagate s;
  Alcotest.(check int) "x max" 0 (Store.vmax x);
  Alcotest.(check int) "y max" 1 (Store.vmax y)

let suite =
  (Alcotest.test_case "bounds chain" `Quick test_propagation_strength :: oracles)
  @ [ mod_oracle ]

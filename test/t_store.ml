(* Store: trailing, propagation queue, entailment. *)

open Fd

let test_var_basics () =
  let s = Store.create () in
  let x = Store.interval_var s 0 9 ~name:"x" in
  Alcotest.(check int) "min" 0 (Store.vmin x);
  Alcotest.(check int) "max" 9 (Store.vmax x);
  Alcotest.(check bool) "fixed" false (Store.is_fixed x);
  Store.assign s x 4;
  Alcotest.(check bool) "fixed after assign" true (Store.is_fixed x);
  Alcotest.(check int) "value" 4 (Store.value x)

let test_empty_domain_fails () =
  let s = Store.create () in
  let x = Store.interval_var s 0 3 in
  Store.assign s x 2;
  Alcotest.check_raises "conflicting assign" (Store.Fail "x: empty domain")
    (fun () ->
      try Store.assign s x 3
      with Store.Fail _ -> raise (Store.Fail "x: empty domain"))

let test_backtracking () =
  let s = Store.create () in
  let x = Store.interval_var s 0 9 in
  let y = Store.interval_var s 0 9 in
  Store.push_level s;
  Store.assign s x 1;
  Store.remove_below s y 5;
  Alcotest.(check int) "y min pruned" 5 (Store.vmin y);
  Store.push_level s;
  Store.assign s y 7;
  Store.pop_level s;
  Alcotest.(check bool) "y unfixed again" false (Store.is_fixed y);
  Alcotest.(check int) "y min preserved" 5 (Store.vmin y);
  Store.pop_level s;
  Alcotest.(check int) "x restored" 0 (Store.vmin x);
  Alcotest.(check int) "y restored" 0 (Store.vmin y)

let test_propagation_runs () =
  let s = Store.create () in
  let x = Store.interval_var s 0 9 in
  let y = Store.interval_var s 0 9 in
  let runs = ref 0 in
  let _p =
    Store.post_now s ~watches:[ x ] (fun st ->
        incr runs;
        Store.remove_below st y (Store.vmin x))
  in
  Store.propagate s;
  let before = !runs in
  Store.remove_below s x 4;
  Store.propagate s;
  Alcotest.(check bool) "propagator re-ran" true (!runs > before);
  Alcotest.(check int) "y follows x" 4 (Store.vmin y)

let test_entailment_trailing () =
  let s = Store.create () in
  let x = Store.interval_var s 0 9 in
  let runs = ref 0 in
  let handle = ref None in
  let p =
    Store.post_now s ~watches:[ x ] (fun st ->
        incr runs;
        match !handle with Some h -> Store.entail st h | None -> ())
  in
  handle := Some p;
  Store.propagate s;
  let after_first = !runs in
  Store.push_level s;
  (* entailed inside this level: no more runs *)
  Store.remove_value s x 3;
  Store.propagate s;
  Alcotest.(check int) "entailed: not re-run" after_first !runs;
  Store.pop_level s;
  (* Entailment must be undone by pop_level... but it was entailed at the
     root run (before push), so it stays entailed.  Re-entail inside a
     level instead: *)
  let s2 = Store.create () in
  let x2 = Store.interval_var s2 0 9 in
  let runs2 = ref 0 in
  let h2 = ref None in
  let p2 =
    Store.post s2 ~watches:[ x2 ] (fun st ->
        incr runs2;
        if Store.vmin x2 >= 5 then
          match !h2 with Some h -> Store.entail st h | None -> ())
  in
  h2 := Some p2;
  Store.push_level s2;
  Store.remove_below s2 x2 5;
  Store.propagate s2;
  let mid = !runs2 in
  Store.remove_below s2 x2 6;
  Store.propagate s2;
  Alcotest.(check int) "no run while entailed" mid !runs2;
  Store.pop_level s2;
  Store.remove_below s2 x2 2;
  Store.propagate s2;
  Alcotest.(check bool) "runs again after pop" true (!runs2 > mid)

let test_const_cached () =
  let s = Store.create () in
  let a = Store.const s 5 and b = Store.const s 5 in
  Alcotest.(check int) "same id" (Store.id a) (Store.id b);
  (* the cache must also hold under many distinct constants *)
  let vs = List.init 100 (fun k -> Store.const s k) in
  List.iteri
    (fun k v -> Alcotest.(check int) "cached id" (Store.id v) (Store.id (Store.const s k)))
    vs

(* Wake events: an On_bounds propagator must not re-run when only an
   interior value is removed, but must re-run when a bound moves. *)
let test_event_bounds_filtering () =
  let s = Store.create () in
  let x = Store.interval_var s 0 9 in
  let bounds_runs = ref 0 and change_runs = ref 0 and fix_runs = ref 0 in
  let _ =
    Store.post_now s ~event:Store.On_bounds ~watches:[ x ] (fun _ -> incr bounds_runs)
  in
  let _ =
    Store.post_now s ~event:Store.On_change ~watches:[ x ] (fun _ -> incr change_runs)
  in
  let _ =
    Store.post_now s ~event:Store.On_fix ~watches:[ x ] (fun _ -> incr fix_runs)
  in
  Store.propagate s;
  let b0 = !bounds_runs and c0 = !change_runs and f0 = !fix_runs in
  (* interior hole: only On_change wakes *)
  Store.remove_value s x 5;
  Store.propagate s;
  Alcotest.(check int) "On_bounds ignores interior hole" b0 !bounds_runs;
  Alcotest.(check bool) "On_change woken by hole" true (!change_runs > c0);
  Alcotest.(check int) "On_fix ignores interior hole" f0 !fix_runs;
  (* bound move: On_bounds wakes, On_fix still not *)
  Store.remove_below s x 2;
  Store.propagate s;
  Alcotest.(check bool) "On_bounds woken by min move" true (!bounds_runs > b0);
  Alcotest.(check int) "On_fix ignores bound move" f0 !fix_runs;
  (* fixing: all three wake (fixing moves a bound) *)
  let b1 = !bounds_runs in
  Store.assign s x 7;
  Store.propagate s;
  Alcotest.(check bool) "On_fix woken by fixing" true (!fix_runs > f0);
  Alcotest.(check bool) "On_bounds woken by fixing" true (!bounds_runs > b1)

(* Priority buckets: all queued low-priority propagators run before any
   queued high-priority (global) one. *)
let test_priority_ordering () =
  let s = Store.create () in
  let x = Store.interval_var s 0 9 in
  let order = ref [] in
  let mk name priority =
    ignore
      (Store.post s ~name ~priority ~watches:[ x ] (fun _ ->
           order := name :: !order))
  in
  mk "global" Store.prio_global;
  mk "arith" Store.prio_arith;
  mk "channel" Store.prio_channel;
  Store.remove_below s x 1;
  Store.propagate s;
  Alcotest.(check (list string))
    "cheap buckets drain first"
    [ "arith"; "channel"; "global" ]
    (List.rev !order)

(* The propagation queue, one ring per priority: FIFO within a
   priority, cheaper priorities drained first, order kept while a ring
   wraps around and while it grows past its first capacity (the rings
   start with 64 slots), and a pop empties the rings and clears the
   queued flags, so what it dropped can be scheduled again.  Runs are
   checked against a model of the queues built on [Stdlib.Queue]. *)
let test_queue_rings () =
  let s = Store.create () in
  let n = 300 in
  (* propagator k < n is arithmetic; n is a channel and n + 1 a global *)
  let prio k =
    if k < n then Store.prio_arith else if k = n then Store.prio_channel
    else Store.prio_global
  in
  let log = ref [] and wakes = ref (fun _ -> []) in
  let ps = Array.make (n + 2) None in
  let handle k = Option.get ps.(k) in
  for k = 0 to n + 1 do
    ps.(k) <-
      Some
        (Store.post s ~priority:(prio k) ~watches:[] (fun st ->
             log := k :: !log;
             List.iter (fun j -> Store.schedule st (handle j)) (!wakes k)))
  done;
  (* what a FIFO per priority runs after [first] are scheduled *)
  let model first =
    let qs = Array.init 3 (fun _ -> Queue.create ()) in
    let queued = Array.make (n + 2) false in
    let sched k =
      if not queued.(k) then begin
        queued.(k) <- true;
        Queue.add k qs.(prio k)
      end
    in
    List.iter sched first;
    let rec go acc =
      match List.find_opt (fun q -> not (Queue.is_empty q)) (Array.to_list qs) with
      | None -> List.rev acc
      | Some q ->
        let k = Queue.pop q in
        queued.(k) <- false;
        List.iter sched (!wakes k);
        go (k :: acc)
    in
    go []
  in
  let run first =
    log := [];
    List.iter (fun k -> Store.schedule s (handle k)) first;
    Store.propagate s;
    List.rev !log
  in
  Alcotest.(check (list int)) "FIFO within a priority" [ 3; 1; 4; 0; 2 ]
    (run [ 3; 1; 4; 0; 2 ]);
  Alcotest.(check (list int)) "lower priorities drain first" [ 7; n; n + 1 ]
    (run [ n + 1; n; 7 ]);
  (* a chain keeps three entries queued while the head goes round the
     ring several times; at k = 150 a burst of 140 overflows it while it
     is wrapped, and k = 20 wakes the channel and the global *)
  (wakes :=
     fun k ->
       (if k + 3 < n then [ k + 3 ] else [])
       @ (if k = 20 then [ n + 1; n ] else [])
       @ if k = 150 then List.init 140 (fun j -> n - 1 - j) else []);
  let first = [ 2; 0; 1 ] in
  let expected = model first in
  Alcotest.(check int) "every propagator ran" (n + 2)
    (List.length (List.sort_uniq compare expected));
  Alcotest.(check (list int)) "wrap-around and growth keep FIFO order" expected
    (run first);
  (* scheduled, then dropped by a pop: nothing runs, and each can be
     scheduled again *)
  wakes := (fun _ -> []);
  let dropped = List.init 100 (fun k -> (7 * k) mod n) @ [ n; n + 1 ] in
  Store.push_level s;
  List.iter (fun k -> Store.schedule s (handle k)) dropped;
  Store.pop_level s;
  Alcotest.(check (list int)) "pop_level empties the queues" [] (run []);
  Alcotest.(check (list int)) "pop_level clears queued" (model dropped) (run dropped)

(* Per-propagator run counters: Store.profile aggregates by name and
   the totals account for every executed step. *)
let test_stats_counters () =
  let s = Store.create () in
  let x = Store.interval_var s 0 9 and y = Store.interval_var s 0 9 in
  Arith.leq_offset s x 1 y;
  let before = Store.propagation_steps s in
  Store.remove_below s x 3;
  Store.propagate s;
  let executed = Store.propagation_steps s - before in
  Alcotest.(check bool) "steps advanced" true (executed > 0);
  let rows = Store.profile s in
  let total = List.fold_left (fun acc r -> acc + r.Store.pr_runs) 0 rows in
  Alcotest.(check int) "runs sum = total steps" (Store.propagation_steps s) total;
  match List.find_opt (fun r -> r.Store.pr_name = "leq_offset") rows with
  | Some r -> Alcotest.(check bool) "leq_offset counted" true (r.Store.pr_runs > 0)
  | None -> Alcotest.fail "leq_offset missing from the profile"

(* reschedule_all + propagate must be a no-op on a store already at its
   propagation fixpoint: event filtering never leaves pruning behind. *)
let test_event_fixpoint_complete () =
  let s = Store.create () in
  let xs = Array.init 4 (fun _ -> Store.interval_var s 0 12) in
  Arith.leq_offset s xs.(0) 3 xs.(1);
  Arith.plus s xs.(1) xs.(2) xs.(3);
  Arith.neq s xs.(0) xs.(2);
  Store.propagate s;
  Store.remove_value s xs.(1) 6;
  Store.remove_below s xs.(3) 4;
  Store.propagate s;
  let doms = Array.map (fun v -> Store.dom v) xs in
  Store.reschedule_all s;
  Store.propagate s;
  Array.iteri
    (fun i v ->
      Alcotest.(check bool)
        (Printf.sprintf "fixpoint stable at %d" i)
        true
        (Dom.equal doms.(i) (Store.dom v)))
    xs

(* Indexed subscriptions: a change advises its index once however many
   events hit it, the run sees exactly the advised indices (including
   the ones its own prunes add), a pop drops what was pending, and
   reschedule_all re-advises every subscription. *)
let test_indexed_subscriptions () =
  let s = Store.create () in
  let xs = Array.init 3 (fun _ -> Store.interval_var s 0 9) in
  let seen = ref [] in
  let run st =
    let rec drain () =
      let i = Store.next_index st in
      if i >= 0 then begin
        seen := i :: !seen;
        (* index 0 pushes x1 up: its own prune advises index 1 *)
        if i = 0 then Store.remove_below st xs.(1) (Store.vmin xs.(0));
        drain ()
      end
    in
    drain ()
  in
  ignore
    (Store.post_indexed s ~size:3
       ~watches:
         [ (Store.On_bounds, xs.(0), 0); (Store.On_fix, xs.(0), 2);
           (Store.On_bounds, xs.(1), 1); (Store.On_bounds, xs.(2), 2) ]
       run);
  let step f =
    seen := [];
    f ();
    Store.propagate s;
    List.sort compare !seen
  in
  Alcotest.(check (list int)) "post: every index" [ 0; 1; 2 ] (step ignore);
  Alcotest.(check (list int)) "own prune drained in the same run" [ 0; 1 ]
    (step (fun () -> Store.remove_below s xs.(0) 3));
  Alcotest.(check int) "x1 pushed" 3 (Store.vmin xs.(1));
  (* x0's fix hits indices 0 and 2, index 0 pushes x1 again: each index
     is seen once *)
  Alcotest.(check (list int)) "each index once" [ 0; 1; 2 ]
    (step (fun () -> Store.assign s xs.(0) 5));
  Alcotest.(check (list int)) "nothing pending" [] (step ignore);
  Store.push_level s;
  Store.remove_above s xs.(2) 4;
  Store.pop_level s;
  Alcotest.(check (list int)) "pending dropped at pop" [ 1 ]
    (step (fun () -> Store.remove_below s xs.(1) 7));
  Alcotest.(check (list int)) "reschedule_all re-advises" [ 0; 1; 2 ]
    (step (fun () -> Store.reschedule_all s))

(* A wake allocates nothing: a [remove_below] on a variable watched in
   all three watcher lists allocates the new domain and its trail
   record (a [Dom_change] and its cons cell, 6 words), nothing for
   the watchers it queues.  Measured on a bound move (change + bounds
   lists) and on a fix (all three). *)
let test_wake_allocates_nothing () =
  let s = Store.create () in
  let x = Store.interval_var s 0 9 in
  List.iter
    (fun event -> ignore (Store.post s ~event ~watches:[ x ] ignore))
    [ Store.On_change; Store.On_bounds; Store.On_fix ];
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  List.iter
    (fun (label, b) ->
      let dom_words =
        words (fun () -> ignore (Sys.opaque_identity (Dom.remove_below b (Store.dom x))))
      in
      Alcotest.(check (float 0.)) label (dom_words +. 6.)
        (words (fun () -> Store.remove_below s x b)))
    [ ("bound move: domain + 6-word trail record", 3);
      ("fix: domain + 6-word trail record", 9) ];
  Alcotest.(check bool) "fixed" true (Store.is_fixed x)

(* Reversible cells: random cell writes interleaved with push/pop,
   domain changes and propagator runs that write cells, entail
   themselves or fail half way.  A reference
   model mirrors every write as it is made and keeps a stack of
   snapshots; after each pop every cell (and every domain) must equal
   the snapshot taken at the matching push, and writes made at level 0
   must survive everything. *)

type step = W of int * int * int | Entail | Fail_here

type cell_op =
  | Write of int * int * int  (* array, slot, value *)
  | Push
  | Pop
  | Narrow of int * step list  (* var to narrow, script of the run it wakes *)

let n_arrays = 3
let n_slots = 5
let n_cvars = 3

let gen_cell_ops =
  QCheck2.Gen.(
    let write =
      triple (int_bound (n_arrays - 1)) (int_bound (n_slots - 1)) (int_range (-3) 9)
    in
    let step =
      frequency
        [
          (6, map (fun (a, i, v) -> W (a, i, v)) write);
          (1, pure Entail);
          (1, pure Fail_here);
        ]
    in
    list_size (int_range 1 60)
      (frequency
         [
           (3, map (fun (a, i, v) -> Write (a, i, v)) write);
           (2, pure Push);
           (2, pure Pop);
           ( 3,
             map2
               (fun k script -> Narrow (k, script))
               (int_bound (n_cvars - 1))
               (list_size (int_range 0 6) step) );
         ]))

let print_cell_ops ops =
  let w (a, i, v) = Printf.sprintf "%d.%d<-%d" a i v in
  let step = function
    | W (a, i, v) -> w (a, i, v)
    | Entail -> "entail"
    | Fail_here -> "fail"
  in
  String.concat "; "
    (List.map
       (function
         | Write (a, i, v) -> "write " ^ w (a, i, v)
         | Push -> "push"
         | Pop -> "pop"
         | Narrow (k, script) ->
           Printf.sprintf "narrow x%d [%s]" k
             (String.concat ", " (List.map step script)))
       ops)

let cells_agree ops =
  let s = Store.create () in
  let cells = Array.init n_arrays (fun _ -> Array.make n_slots 0) in
  let model = Array.map Array.copy cells in
  let xs = Array.init n_cvars (fun _ -> Store.interval_var s 0 100) in
  let script = ref [] in
  let run st =
    let steps = !script in
    script := [];
    List.iter
      (function
        | W (a, i, v) ->
          Store.write st cells.(a) i v;
          model.(a).(i) <- v
        | Entail -> Store.entail_now st
        | Fail_here -> raise (Store.Fail "scripted"))
      steps
  in
  ignore (Store.post s ~watches:(Array.to_list xs) run);
  (* snapshots of (cells, domains) at each open push *)
  let stack = ref [] in
  let snapshot () = (Array.map Array.copy model, Array.map Store.dom xs) in
  let ok = ref true in
  let check (cs, ds) =
    ok :=
      !ok
      && Array.for_all2 ( = ) cs cells
      && Array.for_all2 Dom.equal ds (Array.map Store.dom xs)
  in
  let pop () =
    match !stack with
    | [] -> ()
    | top :: rest ->
      Store.pop_level s;
      stack := rest;
      Array.iteri (fun a c -> Array.blit c 0 model.(a) 0 n_slots) (fst top);
      check top
  in
  List.iter
    (function
      | Write (a, i, v) ->
        Store.write s cells.(a) i v;
        model.(a).(i) <- v;
        check (snapshot ())
      | Push ->
        stack := snapshot () :: !stack;
        Store.push_level s
      | Pop -> pop ()
      | Narrow (k, steps) -> (
        let x = xs.(k) in
        script := steps;
        match
          if not (Store.is_fixed x) then Store.remove_below s x (Store.vmin x + 1);
          Store.propagate s
        with
        | () -> check (snapshot ())
        (* a failure at a level is undone by popping it, as search
           does; at level 0 the writes made before it stay *)
        | exception Store.Fail _ -> if !stack <> [] then pop () else check (snapshot ())))
    ops;
  while !stack <> [] do
    pop ()
  done;
  !ok && Store.level s = 0

let cell_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"reversible cells = reference stack" ~count:1000
       ~print:print_cell_ops gen_cell_ops cells_agree)

let suite =
  [
    Alcotest.test_case "variable basics" `Quick test_var_basics;
    Alcotest.test_case "empty domain fails" `Quick test_empty_domain_fails;
    Alcotest.test_case "trail backtracking" `Quick test_backtracking;
    Alcotest.test_case "propagation" `Quick test_propagation_runs;
    Alcotest.test_case "entailment trailing" `Quick test_entailment_trailing;
    Alcotest.test_case "const cache" `Quick test_const_cached;
    Alcotest.test_case "event filtering" `Quick test_event_bounds_filtering;
    Alcotest.test_case "priority ordering" `Quick test_priority_ordering;
    Alcotest.test_case "queue rings" `Quick test_queue_rings;
    Alcotest.test_case "stats counters" `Quick test_stats_counters;
    Alcotest.test_case "event fixpoint complete" `Quick test_event_fixpoint_complete;
    cell_property;
    Alcotest.test_case "indexed subscriptions" `Quick test_indexed_subscriptions;
    Alcotest.test_case "a wake allocates nothing" `Quick test_wake_allocates_nothing;
  ]

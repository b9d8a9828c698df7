(* The solution cache (lib/cache): canonical keys that are insensitive
   to node-id permutation but sensitive to every model-changing edit, a
   differential layer proving a cache hit replays the cold solve
   exactly, warm-start soundness, LRU bookkeeping and persistence. *)

open Eit_dsl
open Eit
module K = Cache.Key
module V = Vecsched_core.Vecsched

let default_opts =
  {
    K.memory = true;
    parallel = 0;
    max_nodes = None;
    max_time_ms = None;
    validate = true;
  }

let key_of ?(arch = Arch.default) ?(opts = default_opts) g =
  K.make (K.canonicalize g) arch opts

let qrd_ir () = (V.compile (Apps.Qrd.graph (Apps.Qrd.build ()))).V.ir

(* ------------------------- recipe graphs ----------------------------- *)

(* An abstract, id-free description of a kind-correct dataflow graph:
   a pool of input data nodes followed by ops whose args index the pool
   (inputs first, then prior op results).  Building it with different
   insertion orders yields isomorphic graphs with different node ids —
   exactly what the canonical key must be blind to. *)
type recipe = {
  n_vec : int;
  n_sca : int;
  ops : (Opcode.t * int list) list;
}

let pool_kinds r =
  let input k = List.init k Fun.id in
  Array.of_list
    (List.map (fun _ -> `Vector) (input r.n_vec)
    @ List.map (fun _ -> `Scalar) (input r.n_sca)
    @ List.map (fun (op, _) -> Opcode.produces op) r.ops)

(* [shuffle] builds the same abstract graph in a different node order:
   inputs reversed, then every result datum before any op.  The two
   builds are isomorphic by construction. *)
let build ?(shuffle = false) r =
  let b = Ir.builder () in
  let n_in = r.n_vec + r.n_sca in
  let n_ops = List.length r.ops in
  let pool = Array.make (n_in + n_ops) (-1) in
  let kind i = if i < r.n_vec then `Vector else `Scalar in
  let input_order =
    if shuffle then List.rev (List.init n_in Fun.id)
    else List.init n_in Fun.id
  in
  List.iter (fun i -> pool.(i) <- Ir.add_data b (kind i)) input_order;
  if shuffle then
    List.iteri
      (fun i (op, _) -> pool.(n_in + i) <- Ir.add_data b (Opcode.produces op))
      r.ops;
  List.iteri
    (fun i (op, args) ->
      if not shuffle then
        pool.(n_in + i) <- Ir.add_data b (Opcode.produces op);
      ignore
        (Ir.add_op b op
           ~args:(List.map (fun a -> pool.(a)) args)
           ~result:pool.(n_in + i)))
    r.ops;
  Ir.freeze b

(* Decode a raw QCheck triple list into a kind-correct recipe.  Each op
   draws its operands from the kind-matching part of the pool built so
   far, so the graph solves and validates like a real kernel. *)
let recipe_of_raw (n_vec, n_sca, raw) =
  let kinds = ref [] (* reversed pool kinds *) in
  let add k = kinds := k :: !kinds in
  List.iter (fun () -> add `Vector) (List.init n_vec (fun _ -> ()));
  List.iter (fun () -> add `Scalar) (List.init n_sca (fun _ -> ()));
  let pick kind seed =
    let candidates =
      List.filteri (fun _ k -> k = kind) (List.rev !kinds) |> List.length
    in
    let nth = seed mod candidates in
    (* index in pool order of the nth entry of that kind *)
    let rec go i seen = function
      | [] -> assert false
      | k :: tl ->
        if k = kind then
          if seen = nth then i else go (i + 1) (seen + 1) tl
        else go (i + 1) seen tl
    in
    go 0 0 (List.rev !kinds)
  in
  let ops =
    List.map
      (fun (sel, a1, a2) ->
        let op, args =
          match sel mod 5 with
          | 0 -> (Opcode.v Opcode.Vadd, [ pick `Vector a1; pick `Vector a2 ])
          | 1 -> (Opcode.v Opcode.Vmul, [ pick `Vector a1; pick `Vector a2 ])
          | 2 ->
            ( Opcode.V { pre = Some Opcode.Pconj; core = Opcode.Vsub; post = None },
              [ pick `Vector a1; pick `Vector a2 ] )
          | 3 -> (Opcode.v Opcode.Vdotp, [ pick `Vector a1; pick `Vector a2 ])
          | _ -> (Opcode.S Opcode.Smul, [ pick `Scalar a1; pick `Scalar a2 ])
        in
        add (Opcode.produces op);
        (op, args))
      raw
  in
  { n_vec; n_sca; ops }

let gen_recipe =
  QCheck2.Gen.(
    map recipe_of_raw
      (triple (int_range 1 3) (int_range 1 2)
         (list_size (int_range 1 8)
            (triple (int_bound 4) (int_bound 999) (int_bound 999)))))

(* --------------------- key: permutation blindness -------------------- *)

let key_blind_to_node_order =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"isomorphic builds share one key" ~count:200
       gen_recipe (fun r ->
         let a = build r and b = build ~shuffle:true r in
         K.equal (key_of a) (key_of b)))

(* ------------------------ key: edge sensitivity ---------------------- *)

(* Rewire one op operand from [a] to an input [b] with outdeg(b) >=
   outdeg(a): the sum of squared out-degrees strictly increases, so the
   mutated graph is provably non-isomorphic and the key must change.
   (Inputs are never descendants, so no cycle can appear.) *)
let edge_mutation_changes_key =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"operand rewire changes the key" ~count:200
       QCheck2.Gen.(pair gen_recipe (pair (int_bound 999) (int_bound 999)))
       (fun (r, (opi, argi)) ->
         let kinds = pool_kinds r in
         let n_in = r.n_vec + r.n_sca in
         let outdeg = Array.make (Array.length kinds) 0 in
         List.iter
           (fun (_, args) ->
             List.iter (fun a -> outdeg.(a) <- outdeg.(a) + 1) args)
           r.ops;
         let opi = opi mod List.length r.ops in
         let op, args = List.nth r.ops opi in
         let argi = argi mod List.length args in
         let a = List.nth args argi in
         (* candidate inputs of the same kind, heavier or equal, != a *)
         let cands =
           List.filter
             (fun b -> b <> a && kinds.(b) = kinds.(a) && outdeg.(b) >= outdeg.(a))
             (List.init n_in Fun.id)
         in
         match cands with
         | [] -> true (* vacuous draw *)
         | b :: _ ->
           let args' = List.mapi (fun i x -> if i = argi then b else x) args in
           let ops' =
             List.mapi
               (fun i o -> if i = opi then (op, args') else o)
               r.ops
           in
           not (K.equal (key_of (build r)) (key_of (build { r with ops = ops' })))))

(* ------------------------ key: arch sensitivity ---------------------- *)

let test_arch_knobs_change_key () =
  let g = qrd_ir () in
  let base = key_of g in
  let d = Arch.default in
  let knobs =
    [
      ("n_lanes", { d with Arch.n_lanes = d.Arch.n_lanes + 1 });
      ("vector_latency", { d with Arch.vector_latency = d.Arch.vector_latency + 1 });
      ("vector_duration", { d with Arch.vector_duration = d.Arch.vector_duration + 1 });
      ("scalar_latency", { d with Arch.scalar_latency = d.Arch.scalar_latency + 1 });
      ( "scalar_simple_latency",
        { d with Arch.scalar_simple_latency = d.Arch.scalar_simple_latency + 1 } );
      ("scalar_duration", { d with Arch.scalar_duration = d.Arch.scalar_duration + 1 });
      ("im_latency", { d with Arch.im_latency = d.Arch.im_latency + 1 });
      ("im_duration", { d with Arch.im_duration = d.Arch.im_duration + 1 });
      ("banks", { d with Arch.banks = d.Arch.banks + 1 });
      ("page_size", { d with Arch.page_size = d.Arch.page_size + 1 });
      ("lines", { d with Arch.lines = d.Arch.lines + 1 });
      ("slot_limit", { d with Arch.slot_limit = Some 20 });
      ( "max_reads_per_cycle",
        { d with Arch.max_reads_per_cycle = d.Arch.max_reads_per_cycle + 1 } );
      ( "max_writes_per_cycle",
        { d with Arch.max_writes_per_cycle = d.Arch.max_writes_per_cycle + 1 } );
      ("reconfig_cost", { d with Arch.reconfig_cost = d.Arch.reconfig_cost + 1 });
    ]
  in
  List.iter
    (fun (name, arch) ->
      Alcotest.(check bool)
        (name ^ " changes the key")
        false
        (K.equal base (key_of ~arch g)))
    knobs

(* ------------------------ key: opts sensitivity ---------------------- *)

let test_opts_change_key () =
  let g = qrd_ir () in
  let base = key_of g in
  let o = default_opts in
  let variants =
    [
      ("memory", { o with K.memory = false });
      ("parallel", { o with K.parallel = 4 });
      ("max_nodes", { o with K.max_nodes = Some 1000 });
      ("max_time_ms", { o with K.max_time_ms = Some 500. });
      ("validate", { o with K.validate = false });
    ]
  in
  List.iter
    (fun (name, opts) ->
      Alcotest.(check bool)
        (name ^ " changes the key")
        false
        (K.equal base (key_of ~opts g)))
    variants

(* ------------------- key: labels/values excluded --------------------- *)

let test_labels_values_excluded () =
  (* a = x + y built through the DSL (labels + trace values attached)
     vs. the bare structural twin: one key *)
  let ctx = Dsl.create () in
  let x = Dsl.vector_input_f ctx [ 1.; 2.; 3.; 4. ] in
  let y = Dsl.vector_input_f ctx [ 5.; 6.; 7.; 8. ] in
  ignore (Dsl.v_add ctx x y);
  let rich = Dsl.graph ctx in
  let b = Ir.builder () in
  let x' = Ir.add_data b `Vector in
  let y' = Ir.add_data b `Vector in
  let r' = Ir.add_data b `Vector in
  ignore (Ir.add_op b (Opcode.v Opcode.Vadd) ~args:[ x'; y' ] ~result:r');
  let bare = Ir.freeze b in
  Alcotest.(check bool) "labels/values do not affect the key" true
    (K.equal (key_of rich) (key_of bare))

let test_key_repr_roundtrip () =
  let k = key_of (qrd_ir ()) in
  Alcotest.(check bool) "of_repr (repr k) = k" true (K.equal k (K.of_repr (K.repr k)));
  Alcotest.(check int) "digest is a 32-char md5 hex" 32 (String.length (K.digest k))

(* ------------------- differential: hit == cold ----------------------- *)

let solve ?cache ?warm ?warm_bound ?(arch = Arch.default)
    ?(budget = 5_000.) g =
  Sched.Solve.run ~budget:(Fd.Search.time_budget budget) ~arch ?cache ?warm
    ?warm_bound g

let check_same_schedule what (a : Sched.Schedule.t) (b : Sched.Schedule.t) =
  Alcotest.(check int) (what ^ ": makespan") a.Sched.Schedule.makespan
    b.Sched.Schedule.makespan;
  Alcotest.(check (array int)) (what ^ ": start times") a.Sched.Schedule.start
    b.Sched.Schedule.start;
  Alcotest.(check (list (pair int int)))
    (what ^ ": slot assignment")
    (List.sort compare a.Sched.Schedule.slot)
    (List.sort compare b.Sched.Schedule.slot)

let differential_hit_replays_cold =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"cache hit replays the cold solve exactly"
       ~count:60 gen_recipe (fun r ->
         let g = build r in
         let cache = Cache.create ~capacity:8 () in
         let cold = solve ~cache g in
         match cold.Sched.Solve.status with
         | Sched.Solve.Optimal ->
           let hit = solve ~cache g in
           Alcotest.(check bool) "cold not from cache" false
             cold.Sched.Solve.from_cache;
           Alcotest.(check bool) "second solve hits" true
             hit.Sched.Solve.from_cache;
           Alcotest.(check bool) "hit status optimal" true
             (hit.Sched.Solve.status = Sched.Solve.Optimal);
           Alcotest.(check bool) "hit validated" true
             (hit.Sched.Solve.validation = Ok ());
           Alcotest.(check int) "0 nodes" 0 hit.Sched.Solve.stats.Fd.Search.nodes;
           Alcotest.(check int) "0 propagations" 0
             hit.Sched.Solve.stats.Fd.Search.propagations;
           (match (cold.Sched.Solve.schedule, hit.Sched.Solve.schedule) with
           | Some a, Some b -> check_same_schedule "replay" a b
           | _ -> Alcotest.fail "optimal outcome without schedule");
           true
         | _ -> true (* timeout draw: nothing was cached, nothing to check *)))

let test_isomorphic_request_hits () =
  let r =
    recipe_of_raw (2, 1, [ (0, 0, 1); (3, 2, 1); (4, 0, 0) ])
  in
  let a = build r and b = build ~shuffle:true r in
  let cache = Cache.create ~capacity:4 () in
  let cold = solve ~cache a in
  let hit = solve ~cache b in
  Alcotest.(check bool) "cold optimal" true
    (cold.Sched.Solve.status = Sched.Solve.Optimal);
  Alcotest.(check bool) "isomorphic twin hits" true hit.Sched.Solve.from_cache;
  match (cold.Sched.Solve.schedule, hit.Sched.Solve.schedule) with
  | Some ca, Some cb ->
    Alcotest.(check int) "same makespan across the isomorphism"
      ca.Sched.Schedule.makespan cb.Sched.Schedule.makespan;
    (* the replayed schedule must be valid on b's own node ids *)
    Alcotest.(check bool) "replay validates on the twin" true
      (Sched.Schedule.is_valid cb)
  | _ -> Alcotest.fail "expected schedules on both sides"

(* -------------------------- warm start ------------------------------- *)

let warm_same_optimum =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"warm seed preserves the optimum" ~count:40
       gen_recipe (fun r ->
         let g = build r in
         let cold = solve g in
         match (cold.Sched.Solve.status, cold.Sched.Solve.schedule) with
         | Sched.Solve.Optimal, Some sch ->
           let warm = solve ~warm_bound:sch.Sched.Schedule.makespan g in
           Alcotest.(check bool) "warm still optimal" true
             (warm.Sched.Solve.status = Sched.Solve.Optimal);
           (match warm.Sched.Solve.schedule with
           | Some wsch ->
             Alcotest.(check int) "same optimum" sch.Sched.Schedule.makespan
               wsch.Sched.Schedule.makespan
           | None -> Alcotest.fail "warm optimal without schedule");
           Alcotest.(check bool) "warm explores no more nodes" true
             (warm.Sched.Solve.stats.Fd.Search.nodes
             <= cold.Sched.Solve.stats.Fd.Search.nodes);
           true
         | _ -> true))

let test_warm_edited_arch_same_optimum () =
  (* warm-start qrd on an edited arch (20 slots) from the default-arch
     hint: same optimum as the cold solve, never more search *)
  let g = qrd_ir () in
  let edited = Arch.with_slots Arch.default 20 in
  let cold = solve ~arch:edited g in
  let cache = Cache.create ~capacity:4 () in
  ignore (solve ~cache ~warm:true g); (* records the shape hint (168) *)
  let warm = solve ~cache ~warm:true ~arch:edited g in
  Alcotest.(check bool) "cold optimal" true
    (cold.Sched.Solve.status = Sched.Solve.Optimal);
  Alcotest.(check bool) "warm optimal" true
    (warm.Sched.Solve.status = Sched.Solve.Optimal);
  (match (cold.Sched.Solve.schedule, warm.Sched.Solve.schedule) with
  | Some c, Some w ->
    Alcotest.(check int) "same optimum on the edited arch"
      c.Sched.Schedule.makespan w.Sched.Schedule.makespan
  | _ -> Alcotest.fail "expected schedules");
  Alcotest.(check bool) "warm solve explores no more nodes" true
    (warm.Sched.Solve.stats.Fd.Search.nodes
    <= cold.Sched.Solve.stats.Fd.Search.nodes)

let test_warm_bound_below_optimum_is_sound () =
  (* a seed strictly below the true optimum (168) makes the seeded run
     infeasible; the solver must fall back to a cold re-solve and still
     prove Optimal 168 — never report the lie *)
  let g = qrd_ir () in
  List.iter
    (fun seed ->
      let o = solve ~warm_bound:seed g in
      Alcotest.(check bool)
        (Printf.sprintf "optimal despite seed %d" seed)
        true
        (o.Sched.Solve.status = Sched.Solve.Optimal);
      match o.Sched.Solve.schedule with
      | Some sch ->
        Alcotest.(check int)
          (Printf.sprintf "makespan 168 despite seed %d" seed)
          168 sch.Sched.Schedule.makespan
      | None -> Alcotest.fail "optimal without schedule")
    [ 100; 167 ]

let test_warm_on_infeasible_instance () =
  (* 5 simultaneously-live vectors cannot fit 2 slots; a warm seed must
     not turn the honest Infeasible into anything else *)
  let ctx = Dsl.create () in
  let inputs =
    List.init 5 (fun i ->
        Dsl.vector_input_f ctx [ float_of_int i; 0.; 0.; 0. ])
  in
  ignore
    (List.fold_left
       (fun acc v -> Dsl.v_add ctx acc v)
       (List.hd inputs) (List.tl inputs));
  let g = Dsl.graph ctx in
  let arch = Arch.with_slots Arch.default 2 in
  let cold = solve ~arch g in
  let warm = solve ~arch ~warm_bound:200 g in
  Alcotest.(check bool) "cold verdict is a proof" true
    (cold.Sched.Solve.status = Sched.Solve.Infeasible
    || cold.Sched.Solve.status = Sched.Solve.Feasible_timeout);
  Alcotest.(check bool) "warm verdict matches cold" true
    (warm.Sched.Solve.status = cold.Sched.Solve.status);
  Alcotest.(check bool) "no schedule either way" true
    (warm.Sched.Solve.schedule = None && cold.Sched.Solve.schedule = None)

(* --------------------- store policy / poisoning ---------------------- *)

let test_timeout_never_stored () =
  let g = qrd_ir () in
  let cache = Cache.create ~capacity:4 () in
  let o =
    Sched.Solve.run ~budget:(Fd.Search.node_budget 1) ~cache g
  in
  Alcotest.(check bool) "starved run is not optimal" true
    (o.Sched.Solve.status <> Sched.Solve.Optimal);
  Alcotest.(check int) "nothing cached" 0 (Cache.length cache);
  (* and the next full solve is an honest miss, not a poisoned hit *)
  let o2 = solve ~cache g in
  Alcotest.(check bool) "full solve does not hit" false
    o2.Sched.Solve.from_cache;
  match o2.Sched.Solve.schedule with
  | Some sch -> Alcotest.(check int) "true optimum" 168 sch.Sched.Schedule.makespan
  | None -> Alcotest.fail "expected schedule"

let test_chaos_never_touches_cache () =
  let g = qrd_ir () in
  let cache = Cache.create ~capacity:4 () in
  ignore (solve ~cache g); (* a clean entry is present *)
  Alcotest.(check int) "one entry" 1 (Cache.length cache);
  let chaos = Fd.Chaos.create ~seed:7 () in
  let o = Sched.Solve.run ~chaos ~cache g in
  Alcotest.(check bool) "chaos run never hits" false o.Sched.Solve.from_cache;
  let s = Cache.stats cache in
  Alcotest.(check int) "chaos run never consults" 0 s.Cache.hits;
  Alcotest.(check int) "chaos run never stores" 1 (Cache.length cache)

let test_infeasible_proof_is_cached () =
  let ctx = Dsl.create () in
  let inputs =
    List.init 5 (fun i ->
        Dsl.vector_input_f ctx [ float_of_int i; 0.; 0.; 0. ])
  in
  ignore
    (List.fold_left
       (fun acc v -> Dsl.v_add ctx acc v)
       (List.hd inputs) (List.tl inputs));
  let g = Dsl.graph ctx in
  let arch = Arch.with_slots Arch.default 2 in
  let cache = Cache.create ~capacity:4 () in
  let cold = solve ~arch ~cache g in
  if cold.Sched.Solve.status = Sched.Solve.Infeasible then begin
    let hit = solve ~arch ~cache g in
    Alcotest.(check bool) "infeasibility proof replays" true
      hit.Sched.Solve.from_cache;
    Alcotest.(check bool) "still infeasible" true
      (hit.Sched.Solve.status = Sched.Solve.Infeasible);
    Alcotest.(check int) "0 propagations" 0
      hit.Sched.Solve.stats.Fd.Search.propagations
  end

(* ------------------------ LRU bookkeeping ---------------------------- *)

let test_lru_eviction_and_counters () =
  let g = qrd_ir () in
  let cache = Cache.create ~capacity:2 () in
  let arches =
    [ Arch.default; Arch.with_slots Arch.default 20;
      Arch.with_slots Arch.default 30 ]
  in
  List.iter (fun arch -> ignore (solve ~arch ~cache g)) arches;
  Alcotest.(check int) "bounded at capacity" 2 (Cache.length cache);
  let s = Cache.stats cache in
  Alcotest.(check int) "three stores" 3 s.Cache.stores;
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "three misses" 3 s.Cache.misses;
  (* the oldest entry (default arch) was the one evicted *)
  let o = solve ~cache g in
  Alcotest.(check bool) "evicted entry misses" false o.Sched.Solve.from_cache;
  let o20 = solve ~arch:(Arch.with_slots Arch.default 30) ~cache g in
  Alcotest.(check bool) "recent entry hits" true o20.Sched.Solve.from_cache

let test_capacity_zero_disables () =
  let g = qrd_ir () in
  let cache = Cache.create ~capacity:0 () in
  ignore (solve ~cache g);
  ignore (solve ~cache g);
  Alcotest.(check int) "nothing retained" 0 (Cache.length cache)

let test_hint_noted () =
  let g = qrd_ir () in
  let cache = Cache.create ~capacity:4 () in
  ignore (solve ~cache g);
  Alcotest.(check (option int)) "shape hint records the optimum" (Some 168)
    (Cache.hint cache ~shape:(K.shape_digest g))

(* -------------------------- persistence ------------------------------ *)

let test_persistence_roundtrip () =
  let g = qrd_ir () in
  let cache = Cache.create ~capacity:4 () in
  ignore (solve ~cache g);
  let path = Filename.temp_file "eitc_cache" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Cache.save cache path;
      match Cache.load ~capacity:4 path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok loaded ->
        Alcotest.(check int) "entry survives the round trip" 1
          (Cache.length loaded);
        let s = Cache.stats loaded in
        Alcotest.(check (list int)) "a reload counts nothing" [ 0; 0; 0; 0 ]
          [ s.Cache.hits; s.Cache.misses; s.Cache.evictions; s.Cache.stores ];
        Alcotest.(check (option int)) "hint survives the round trip"
          (Some 168)
          (Cache.hint loaded ~shape:(K.shape_digest g));
        let hit = solve ~cache:loaded g in
        Alcotest.(check bool) "hit from the loaded cache" true
          hit.Sched.Solve.from_cache;
        (match hit.Sched.Solve.schedule with
        | Some sch ->
          Alcotest.(check int) "replayed optimum" 168 sch.Sched.Schedule.makespan
        | None -> Alcotest.fail "expected schedule"))

let test_corrupt_cache_file_rejected () =
  let path = Filename.temp_file "eitc_cache" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "this is not json");
      (match Cache.load ~capacity:4 path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage accepted");
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "{\"version\": 1}");
      match Cache.load ~capacity:4 path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated document accepted")

let suite =
  [
    key_blind_to_node_order;
    edge_mutation_changes_key;
    Alcotest.test_case "every arch knob changes the key" `Quick
      test_arch_knobs_change_key;
    Alcotest.test_case "every solve option changes the key" `Quick
      test_opts_change_key;
    Alcotest.test_case "labels and trace values are excluded" `Quick
      test_labels_values_excluded;
    Alcotest.test_case "key repr round-trips" `Quick test_key_repr_roundtrip;
    differential_hit_replays_cold;
    Alcotest.test_case "isomorphic request hits and revalidates" `Quick
      test_isomorphic_request_hits;
    warm_same_optimum;
    Alcotest.test_case "warm start on an edited arch" `Slow
      test_warm_edited_arch_same_optimum;
    Alcotest.test_case "seed below the optimum stays sound" `Slow
      test_warm_bound_below_optimum_is_sound;
    Alcotest.test_case "warm seed cannot mask infeasibility" `Quick
      test_warm_on_infeasible_instance;
    Alcotest.test_case "timeouts are never cached" `Quick
      test_timeout_never_stored;
    Alcotest.test_case "chaos runs never touch the cache" `Quick
      test_chaos_never_touches_cache;
    Alcotest.test_case "infeasibility proofs are cached" `Quick
      test_infeasible_proof_is_cached;
    Alcotest.test_case "LRU eviction and counters" `Slow
      test_lru_eviction_and_counters;
    Alcotest.test_case "capacity 0 disables the cache" `Quick
      test_capacity_zero_disables;
    Alcotest.test_case "warm hints are recorded" `Quick test_hint_noted;
    Alcotest.test_case "persistence round-trips" `Quick
      test_persistence_roundtrip;
    Alcotest.test_case "corrupt cache files are rejected" `Quick
      test_corrupt_cache_file_rejected;
  ]

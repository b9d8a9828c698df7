(* The solution cache (lib/cache): canonical keys that are insensitive
   to node-id permutation but sensitive to every model-changing edit, a
   differential layer proving a cache hit replays the cold solve
   exactly, LRU bookkeeping and persistence. *)

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

let solve ?cache ?(arch = Arch.default) ?(budget = 5_000.) g =
  Sched.Solve.run ~budget:(Fd.Search.time_budget budget) ~arch ?cache g

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
  (* 5 simultaneously-live vectors cannot fit 2 slots.  The cold solve
     proves it well inside the budget, so a timeout is a failure. *)
  let cold = solve ~arch ~cache g in
  Alcotest.(check bool) "cold verdict is an infeasibility proof" true
    (cold.Sched.Solve.status = Sched.Solve.Infeasible);
  Alcotest.(check bool) "no schedule" true (cold.Sched.Solve.schedule = None);
  let hit = solve ~arch ~cache g in
  Alcotest.(check bool) "infeasibility proof replays" true
    hit.Sched.Solve.from_cache;
  Alcotest.(check bool) "still infeasible" true
    (hit.Sched.Solve.status = Sched.Solve.Infeasible);
  Alcotest.(check int) "0 propagations" 0
    hit.Sched.Solve.stats.Fd.Search.propagations

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

(* -------------------------- persistence ------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "eitc_cache" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_file path text =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)

let test_persistence_roundtrip () =
  let g = qrd_ir () in
  let cache = Cache.create ~capacity:4 () in
  ignore (solve ~cache g);
  with_temp_file (fun path ->
      Cache.save cache path;
      match Cache.load ~capacity:4 path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok loaded ->
        Alcotest.(check int) "entry survives the round trip" 1
          (Cache.length loaded);
        let s = Cache.stats loaded in
        Alcotest.(check (list int)) "a reload counts nothing" [ 0; 0; 0; 0 ]
          [ s.Cache.hits; s.Cache.misses; s.Cache.evictions; s.Cache.stores ];
        let hit = solve ~cache:loaded g in
        Alcotest.(check bool) "hit from the loaded cache" true
          hit.Sched.Solve.from_cache;
        (match hit.Sched.Solve.schedule with
        | Some sch ->
          Alcotest.(check int) "replayed optimum" 168 sch.Sched.Schedule.makespan
        | None -> Alcotest.fail "expected schedule"))

(* A cache file needs [version] and [entries] only.  Files written
   while the cache still kept warm-start hints carry an extra [hints]
   list, which [load] ignores.  Save a solved QRD entry, rewrite the
   file as exactly version + entries + [extra], and check that the
   entry loads and hits. *)
let check_loads_with what extra =
  let g = qrd_ir () in
  let cache = Cache.create ~capacity:4 () in
  ignore (solve ~cache g);
  with_temp_file (fun path ->
      Cache.save cache path;
      let saved =
        match Obs.Json.parse_file path with
        | Ok doc -> doc
        | Error e -> Alcotest.failf "saved file does not parse: %s" e
      in
      let entries =
        match Obs.Json.member "entries" saved with
        | Some e -> e
        | None -> Alcotest.fail "saved file lacks entries"
      in
      write_file path
        (Obs.Json.to_string
           (Obs.Json.Obj
              (("version", Obs.Json.Num 1.) :: ("entries", entries) :: extra)));
      (match Cache.load ~capacity:4 path with
      | Error e -> Alcotest.failf "%s: rejected: %s" what e
      | Ok loaded ->
        Alcotest.(check int) (what ^ ": entry loads") 1 (Cache.length loaded);
        Alcotest.(check bool) (what ^ ": entry hits") true
          (solve ~cache:loaded g).Sched.Solve.from_cache);
      Alcotest.(check bool) "save writes no hints" true
        (Obs.Json.member "hints" saved = None))

let test_file_without_hints () = check_loads_with "no hints" []

let test_file_with_legacy_hints () =
  check_loads_with "legacy hints"
    [
      ( "hints",
        Obs.Json.Arr
          [
            Obs.Json.Arr
              [ Obs.Json.Str (Digest.to_hex (Digest.string "shape"));
                Obs.Json.Num 168. ];
          ] );
    ]

let test_corrupt_cache_file_rejected () =
  with_temp_file (fun path ->
      write_file path "this is not json";
      (match Cache.load ~capacity:4 path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage accepted");
      write_file path "{\"version\": 1}";
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
    Alcotest.test_case "timeouts are never cached" `Quick
      test_timeout_never_stored;
    Alcotest.test_case "chaos runs never touch the cache" `Quick
      test_chaos_never_touches_cache;
    Alcotest.test_case "infeasibility proofs are cached" `Quick
      test_infeasible_proof_is_cached;
    Alcotest.test_case "persistence round-trips" `Quick
      test_persistence_roundtrip;
    Alcotest.test_case "a file without hints loads" `Quick
      test_file_without_hints;
    Alcotest.test_case "legacy hints are ignored" `Quick
      test_file_with_legacy_hints;
    Alcotest.test_case "corrupt cache files are rejected" `Quick
      test_corrupt_cache_file_rejected;
    Alcotest.test_case "LRU eviction and counters" `Slow
      test_lru_eviction_and_counters;
    Alcotest.test_case "capacity 0 disables the cache" `Quick
      test_capacity_zero_disables;
  ]

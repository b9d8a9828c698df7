(* Every metric the benchmark emits, with its unit.  BENCHMARK.json
   declares the same lists (with directions and bounds); the smoke run
   checks that the two agree. *)

let workloads = [ "compile-seq"; "serve-mix"; "serve-repeat" ]

let end_to_end =
  [
    ("setup_s", "s");
    ("latency_p50_geomean_ms", "ms");
    ("throughput_rps", "1/s");
    ("optimal_frac", "share");
    ("schedule_cycles_geomean", "cycles");
    ("peak_rss_mb", "MB");
  ]

let per_kernel =
  [
    ("apps.trace_ms", "ms");
    ("eit_dsl.merge_ms", "ms");
    ("sched.model_ms", "ms");
    ("fd.search_ms", "ms");
    ("fd.first_incumbent_ms", "ms");
    ("fd.nodes", "count");
    ("fd.propagations", "count");
    ("fd.failures", "count");
    ("sched.validate_ms", "ms");
    ("sched.codegen_ms", "ms");
    ("eit.sim_ms", "ms");
    ("sched.solve_ms", "ms");
    ("sched.heuristic_ms", "ms");
    ("sched.heuristic_cycles", "cycles");
    ("sched.bound_cycles", "cycles");
    ("sched.makespan_cycles", "cycles");
  ]

let per_layer =
  let family metrics kernels =
    List.concat_map (fun (m, u) -> List.map (fun k -> (m ^ "." ^ k, u)) kernels) metrics
  in
  family per_kernel [ "qrd"; "arf"; "matmul"; "blocked8" ]
  @ family [ ("fd.portfolio_ms", "ms"); ("fd.portfolio_nodes", "count") ] [ "qrd"; "arf"; "matmul" ]
  @ [ ("fd.crashes", "count") ]
  @ family [ ("serve.solve_ms", "ms") ] [ "qrd"; "arf"; "matmul"; "fir" ]
  @ [
      ("serve.queue_wait_ms.p50", "ms");
      ("serve.queue_wait_ms.p99", "ms");
      ("serve.total_p99_ms", "ms");
      ("serve.validate_ms.p50", "ms");
      ("serve.residual_ms.p50", "ms");
      ("serve.encode_ms.p50", "ms");
      ("serve.attempts_mean", "count");
      ("serve.retries", "count");
      ("serve.fallback_frac", "share");
      ("serve.shed", "count");
      ("serve.expired", "count");
      ("serve.wedged", "count");
      ("serve.revived", "count");
      ("obs.hist_p99_rel_err", "share");
      ("eit_dsl.xml_parse_ms.p50", "ms");
      ("cache.key_ms.p50", "ms");
      ("cache.hit_latency_p50_ms", "ms");
      ("cache.hit_rate", "share");
      ("cache.evictions", "count");
      ("cache.miss_latency_p50_ms", "ms");
      ("gen.lag_p99_ms", "ms");
      ("gen.lag_max_ms", "ms");
      ("trace_overhead_pct", "%");
      ("trace_unattributed_pct", "%");
      ("host.ref_ms", "ms");
    ]

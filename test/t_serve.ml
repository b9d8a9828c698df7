(* The batch scheduling service (lib/serve): admission control and
   shedding, end-to-end deadlines (queue wait included), retry with
   backoff, wedge detection + worker revival, per-request isolation of
   malformed input, wire formats, obs tagging, determinism of served
   solves, and a mixed chaos soak. *)

module S = Serve.Service
module W = Serve.Wire
module V = Vecsched_core.Vecsched

let qrd_ir () = (V.compile (Apps.Qrd.graph (Apps.Qrd.build ()))).V.ir

(* A request that runs its whole budget and still returns a schedule:
   MATMUL under a seeded renumbering.  In DSL order it is proven at its
   bound (11) in 28 nodes; in this numbering (ties the first search
   phase breaks by node order) a 10 s search ends at 12 without a
   proof, so no budget in this file ends in a proof. *)
let renumbered_matmul () =
  let raw = T_model_solve.renumber 0 (Apps.Matmul.graph (Apps.Matmul.build ())) in
  S.Xml_text (V.Xml.to_string (V.compile raw).V.ir)

(* Never let a broken service hang the test runner: poll with a hard
   cap instead of blocking on [await]. *)
let await_or_fail ?(ms = 30_000.) tk =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match S.peek tk with
    | Some r -> r
    | None ->
      if (Unix.gettimeofday () -. t0) *. 1000. > ms then
        Alcotest.failf "no response within %.0f ms" ms
      else begin
        Unix.sleepf 0.005;
        go ()
      end
  in
  go ()

let with_service config f =
  let svc = S.create ~config () in
  Fun.protect ~finally:(fun () -> S.shutdown svc) (fun () -> f svc)

(* Run [f], then remove [dir]'s flight dumps and [dir] itself, even when
   an assertion in [f] fails. *)
let with_flight_dir dir f =
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove (Obs.Flight.dump_files dir);
      if Sys.file_exists dir then Sys.rmdir dir)
    f

let base_config =
  {
    S.default_config with
    S.pool = 2;
    grace_ms = 1_000.;
    watchdog_tick_ms = 5.;
    backoff_base_ms = 5.;
  }

(* --------------------------- happy path ----------------------------- *)

let test_solves_kernels () =
  with_service base_config (fun svc ->
      let q = S.submit svc (S.request ~id:"q" ~budget_ms:10_000. (S.Kernel "qrd")) in
      let a = S.submit svc (S.request ~id:"a" ~budget_ms:10_000. (S.Kernel "arf")) in
      let rq = await_or_fail q and ra = await_or_fail a in
      (match rq.S.reply with
      | S.Solved s ->
        Alcotest.(check (option int)) "qrd makespan" (Some 168) s.S.makespan;
        Alcotest.(check bool) "qrd optimal" true (s.S.st = Sched.Solve.Optimal)
      | r -> Alcotest.failf "qrd: unexpected reply %a" S.pp_reply r);
      (match ra.S.reply with
      | S.Solved s ->
        Alcotest.(check (option int)) "arf makespan" (Some 56) s.S.makespan
      | r -> Alcotest.failf "arf: unexpected reply %a" S.pp_reply r);
      Alcotest.(check string) "status" "optimal" (S.status_string rq);
      Alcotest.(check int) "exit code" 0 (S.exit_code rq);
      Alcotest.(check int) "attempts" 1 rq.S.attempts;
      Alcotest.(check bool) "ran on a worker" true (rq.S.worker >= 0);
      let h = S.health svc in
      Alcotest.(check int) "completed" 2 h.S.completed;
      Alcotest.(check int) "alive" 2 h.S.alive;
      Alcotest.(check int) "nothing shed/expired/wedged" 0
        (h.S.shed + h.S.expired + h.S.wedged))

(* Served solves must be reproducible and identical to a direct
   [Sched.Solve.run]: same node / propagation counts, every time. *)
let test_determinism_vs_direct () =
  let direct =
    Sched.Solve.run ~budget:(Fd.Search.time_budget 10_000.) ~fallback:false
      (qrd_ir ())
  in
  Alcotest.(check bool) "direct optimal" true
    (direct.Sched.Solve.status = Sched.Solve.Optimal);
  with_service { base_config with S.pool = 1 } (fun svc ->
      let solve () =
        match
          (await_or_fail
             (S.submit svc (S.request ~id:"d" ~budget_ms:10_000. (S.Kernel "qrd"))))
            .S.reply
        with
        | S.Solved s -> s
        | r -> Alcotest.failf "unexpected reply %a" S.pp_reply r
      in
      let s1 = solve () and s2 = solve () in
      Alcotest.(check int) "nodes repeat" s1.S.nodes s2.S.nodes;
      Alcotest.(check int) "propagations repeat" s1.S.propagations
        s2.S.propagations;
      Alcotest.(check int) "nodes = direct" direct.Sched.Solve.stats.Fd.Search.nodes
        s1.S.nodes;
      Alcotest.(check int) "propagations = direct"
        direct.Sched.Solve.stats.Fd.Search.propagations s1.S.propagations;
      Alcotest.(check (option int)) "makespan = direct"
        (Option.map
           (fun sch -> sch.Sched.Schedule.makespan)
           direct.Sched.Solve.schedule)
        s1.S.makespan)

(* ---------------------- malformed input isolation -------------------- *)

let test_invalid_requests_answered_not_fatal () =
  with_service base_config (fun svc ->
      let bad =
        [
          S.request ~id:"k" (S.Kernel "no-such-kernel");
          S.request ~id:"x" (S.Xml_text "<graph><bogus");
          S.request ~id:"p" ~preset:"no-such-arch" (S.Kernel "qrd");
          S.request ~id:"f" (S.Xml_file "/no/such/file.xml");
        ]
      in
      let replies = List.map (fun r -> await_or_fail (S.submit svc r)) bad in
      List.iter
        (fun r ->
          (match r.S.reply with
          | S.Invalid msg ->
            Alcotest.(check bool) "non-empty error" true (String.length msg > 0)
          | other -> Alcotest.failf "%s: expected invalid, got %a" r.S.r_id S.pp_reply other);
          Alcotest.(check string) "status" "error" (S.status_string r);
          Alcotest.(check int) "code" 7 (S.exit_code r))
        replies;
      (* the XML parse error is positioned *)
      (match (List.nth replies 1).S.reply with
      | S.Invalid msg ->
        Alcotest.(check bool) ("positioned: " ^ msg) true
          (String.length msg >= 9 && String.sub msg 0 9 = "xml: line")
      | _ -> assert false);
      (* ...and the service is still fully operational afterwards *)
      let ok =
        await_or_fail
          (S.submit svc (S.request ~id:"ok" ~budget_ms:10_000. (S.Kernel "matmul")))
      in
      (match ok.S.reply with
      | S.Solved s ->
        Alcotest.(check (option int)) "matmul makespan" (Some 11) s.S.makespan
      | r -> Alcotest.failf "after invalids: %a" S.pp_reply r);
      let h = S.health svc in
      Alcotest.(check int) "invalid counted" 4 h.S.invalid;
      Alcotest.(check int) "alive" 2 h.S.alive)

(* A 4-lane matrix op on the 2-lane mini preset makes the problem
   infeasible: a typed infeasible verdict (exit 3), not a crash. *)
let test_too_wide_op_infeasible () =
  with_service base_config (fun svc ->
      List.iter
        (fun k ->
          let r =
            await_or_fail
              (S.submit svc
                 (S.request ~id:k ~preset:"mini" ~budget_ms:10_000. (S.Kernel k)))
          in
          Alcotest.(check string) (k ^ " status") "infeasible" (S.status_string r);
          Alcotest.(check int) (k ^ " code") 3 (S.exit_code r);
          match r.S.reply with
          | S.Solved s -> Alcotest.(check int) (k ^ " no crashes") 0 s.S.crashes
          | r -> Alcotest.failf "%s: %a" k S.pp_reply r)
        [ "detect"; "qrd-sorted" ])

(* -------------------------- admission control ------------------------ *)

let test_overload_sheds () =
  with_service
    { base_config with S.pool = 1; queue = 1 }
    (fun svc ->
      (* 8 back-to-back unprovable solves at a 200 ms budget on a
         1-worker/1-slot service: at most one runs and one waits, so
         most are shed immediately with a typed verdict. *)
      let slow = renumbered_matmul () in
      let tks =
        List.init 8 (fun i ->
            S.submit svc
              (S.request ~id:(Printf.sprintf "o%d" i) ~budget_ms:200. slow))
      in
      let rs = List.map (fun tk -> await_or_fail tk) tks in
      let shed =
        List.length (List.filter (fun r -> r.S.reply = S.Overloaded) rs)
      in
      Alcotest.(check bool) (Printf.sprintf "most shed (got %d)" shed) true
        (shed >= 5);
      List.iter
        (fun r ->
          if r.S.reply = S.Overloaded then begin
            Alcotest.(check string) "status" "rejected_overload"
              (S.status_string r);
            Alcotest.(check int) "code" 5 (S.exit_code r);
            Alcotest.(check int) "no worker" (-1) r.S.worker
          end)
        rs;
      let h = S.health svc in
      Alcotest.(check int) "shed counter" shed h.S.shed;
      Alcotest.(check int) "every request answered" 8 h.S.completed)

(* A request whose deadline passes while it is still queued fails fast
   via the watchdog, without ever occupying a worker. *)
let test_deadline_expires_in_queue () =
  with_service
    { base_config with S.pool = 1 }
    (fun svc ->
      (* blocker: spends its full 600 ms searching *)
      let blocker =
        S.submit svc (S.request ~id:"blk" ~budget_ms:600. (renumbered_matmul ()))
      in
      let doomed =
        S.submit svc
          (S.request ~id:"doom" ~budget_ms:10_000. ~deadline_ms:60.
             (S.Kernel "qrd"))
      in
      let rd = await_or_fail doomed in
      Alcotest.(check bool) "expired" true (rd.S.reply = S.Expired);
      Alcotest.(check int) "never ran" (-1) rd.S.worker;
      Alcotest.(check int) "no attempts" 0 rd.S.attempts;
      Alcotest.(check int) "code" 6 (S.exit_code rd);
      Alcotest.(check bool) "failed fast, did not wait for the blocker" true
        (rd.S.total_ms < 500.);
      let rb = await_or_fail blocker in
      (match rb.S.reply with
      | S.Solved s ->
        Alcotest.(check bool) "blocker ran out its budget" true
          (s.S.st = Sched.Solve.Feasible_timeout);
        Alcotest.(check bool) "blocker makespan" true (s.S.makespan <> None)
      | r -> Alcotest.failf "blocker: %a" S.pp_reply r);
      Alcotest.(check int) "expired counter" 1 (S.health svc).S.expired)

(* ------------------------------ retries ------------------------------ *)

(* Crash the first request's first attempt (chaos site 0*8+1 = 1) on
   its first propagator execution: the retry runs at site 2, which is
   healthy, and must succeed with identical results. *)
let test_retry_rescues_poisoned_attempt () =
  let chaos = Fd.Chaos.create ~crash_at:[ (1, 1) ] ~seed:11 () in
  with_service
    { base_config with S.pool = 1; max_retries = 2; chaos = Some chaos }
    (fun svc ->
      let r =
        await_or_fail
          (S.submit svc (S.request ~id:"r" ~budget_ms:10_000. (S.Kernel "qrd")))
      in
      (match r.S.reply with
      | S.Solved s ->
        Alcotest.(check bool) "optimal after retry" true
          (s.S.st = Sched.Solve.Optimal);
        Alcotest.(check (option int)) "makespan" (Some 168) s.S.makespan;
        Alcotest.(check bool) "crash recorded" true (s.S.crashes >= 1)
      | other -> Alcotest.failf "unexpected %a" S.pp_reply other);
      Alcotest.(check int) "attempts" 2 r.S.attempts;
      Alcotest.(check int) "retry counter" 1 (S.health svc).S.retries;
      Alcotest.(check bool) "fault logged" true
        (List.exists (fun f -> f.Fd.Chaos.site = 1) (Fd.Chaos.faults chaos)))

(* When the remaining deadline cannot fund the backoff pause, the retry
   is skipped and the degradation ladder answers instead. *)
let test_retry_bounded_by_deadline () =
  let chaos =
    Fd.Chaos.create ~crash_at:[ (1, 1); (2, 1); (3, 1); (4, 1) ] ~seed:11 ()
  in
  with_service
    {
      base_config with
      S.pool = 1;
      max_retries = 3;
      backoff_base_ms = 400.;
      chaos = Some chaos;
    }
    (fun svc ->
      let r =
        await_or_fail
          (S.submit svc
             (S.request ~id:"b" ~budget_ms:2_000. ~deadline_ms:300.
                (S.Kernel "qrd")))
      in
      Alcotest.(check int) "single attempt (no time to back off)" 1 r.S.attempts;
      Alcotest.(check int) "no retries" 0 (S.health svc).S.retries;
      match r.S.reply with
      | S.Solved s ->
        (* the zero-budget rescue delivered the heuristic schedule *)
        Alcotest.(check bool) "fallback engine" true
          (s.S.eng = Sched.Solve.Fallback);
        Alcotest.(check bool) "has schedule" true (s.S.makespan <> None)
      | other -> Alcotest.failf "unexpected %a" S.pp_reply other)

(* --------------------------- wedge + revival ------------------------- *)

(* Wedge the first request's first attempt (chaos site 0*8+1 = 1): the
   watchdog must answer the request, revive the slot, and the next
   request must be served normally by the fresh worker. *)
let test_wedge_detected_and_worker_revived () =
  let chaos =
    Fd.Chaos.create ~wedge_at:[ (1, 5) ] ~wedge_max_ms:20_000. ~seed:3 ()
  in
  with_service
    {
      base_config with
      S.pool = 1;
      grace_ms = 100.;
      watchdog_tick_ms = 10.;
      chaos = Some chaos;
    }
    (fun svc ->
      let t0 = Unix.gettimeofday () in
      let r =
        await_or_fail
          (S.submit svc (S.request ~id:"w" ~budget_ms:10_000. (S.Kernel "qrd")))
      in
      let dt_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      (match r.S.reply with
      | S.Wedged msg ->
        Alcotest.(check bool) ("names the worker: " ^ msg) true
          (String.length msg > 0)
      | other -> Alcotest.failf "expected wedged, got %a" S.pp_reply other);
      Alcotest.(check int) "code" 4 (S.exit_code r);
      Alcotest.(check bool) "verdict in ~grace, not wedge_max" true
        (dt_ms < 5_000.);
      let next =
        await_or_fail
          (S.submit svc (S.request ~id:"n" ~budget_ms:10_000. (S.Kernel "arf")))
      in
      (match next.S.reply with
      | S.Solved s ->
        Alcotest.(check (option int)) "revived worker serves" (Some 56)
          s.S.makespan
      | other -> Alcotest.failf "after revival: %a" S.pp_reply other);
      let h = S.health svc in
      Alcotest.(check int) "wedged counter" 1 h.S.wedged;
      Alcotest.(check int) "revived counter" 1 h.S.revived;
      Alcotest.(check int) "pool back to size" 1 h.S.alive)

(* The chaos wedge itself is bounded: with no supervisor at all, the
   wedge_max_ms ceiling unwinds it deterministically. *)
let test_wedge_ceiling_without_watchdog () =
  let g = qrd_ir () in
  let run () =
    let chaos =
      Fd.Chaos.create ~wedge_at:[ (0, 5) ] ~wedge_max_ms:100. ~seed:3 ()
    in
    Sched.Solve.run ~budget:(Fd.Search.time_budget 10_000.) ~chaos
      ~fallback:false g
  in
  let t0 = Unix.gettimeofday () in
  let a = run () in
  let dt_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Alcotest.(check bool) "crashed" true (a.Sched.Solve.status = Sched.Solve.Crashed);
  Alcotest.(check bool) "took ~wedge_max_ms" true (dt_ms < 5_000.);
  let b = run () in
  Alcotest.(check bool) "deterministic status" true
    (b.Sched.Solve.status = Sched.Solve.Crashed);
  Alcotest.(check int) "deterministic node count"
    a.Sched.Solve.stats.Fd.Search.nodes b.Sched.Solve.stats.Fd.Search.nodes

(* ------------------------------- obs --------------------------------- *)

let test_trace_tagged_with_request_ids () =
  let path = Filename.temp_file "serve" ".trace.json" in
  let h = Obs.attach (Obs.Chrome.sink ~path ()) in
  with_service { base_config with S.pool = 1 } (fun svc ->
      List.iter
        (fun id ->
          ignore
            (await_or_fail
               (S.submit svc (S.request ~id ~budget_ms:10_000. (S.Kernel "arf")))))
        [ "alpha"; "beta" ]);
  Obs.detach h;
  (match Obs.Check.trace_file path with
  | Ok n -> Alcotest.(check bool) "events present" true (n > 0)
  | Error e -> Alcotest.failf "trace invalid: %s" e);
  let ic = open_in path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and bl = String.length body in
        let rec go i = i + nl <= bl && (String.sub body i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("trace contains " ^ needle) true found)
    [ "request:alpha"; "request:beta"; "pool-worker-0"; "serve.admit" ]

(* ------------------------------- wire -------------------------------- *)

let test_wire_requests () =
  (* every solve is sequential: an old client's "parallel" member is
     ignored like any other unknown member, and the line still parses *)
  (match
     W.parse_line
       {|{"id":"x","kernel":"qrd","slots":16,"arch":"eit","budget_ms":50,"deadline_ms":2000,"parallel":2,"retries":3}|}
   with
  | Ok (W.Request r) ->
    Alcotest.(check string) "id" "x" r.S.id;
    Alcotest.(check bool) "workload" true (r.S.workload = S.Kernel "qrd");
    Alcotest.(check (option int)) "slots" (Some 16) r.S.slots;
    Alcotest.(check (option string)) "arch" (Some "eit") r.S.preset;
    Alcotest.(check (option int)) "retries" (Some 3) r.S.retries
  | Ok (W.Stats _) -> Alcotest.fail "request parsed as a stats line"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match W.parse_line ~default_id:"line-7" {|{"xml":"<graph/>"}|} with
  | Ok (W.Request r) -> Alcotest.(check string) "default id" "line-7" r.S.id
  | Ok (W.Stats _) -> Alcotest.fail "request parsed as a stats line"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* exactly one workload key *)
  (match W.parse_line {|{"id":"y","kernel":"qrd","xml":"<graph/>"}|} with
  | Ok _ -> Alcotest.fail "two workloads accepted"
  | Error _ -> ());
  (match W.parse_line {|{"id":"z"}|} with
  | Ok _ -> Alcotest.fail "no workload accepted"
  | Error _ -> ());
  (match W.parse_line "{not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error e -> Alcotest.(check bool) "json error" true (String.length e > 0));
  let el = W.error_line ~id:"line-3" "boom" in
  (match Obs.Json.parse el with
  | Ok j ->
    Alcotest.(check bool) "error line has code 7" true
      (Obs.Json.member "code" j = Some (Obs.Json.Num 7.))
  | Error e -> Alcotest.failf "error_line not json: %s" e)

let test_wire_response_roundtrip () =
  let resp =
    {
      S.r_id = "r1";
      reply =
        S.Solved
          {
            S.st = Sched.Solve.Optimal;
            eng = Sched.Solve.Cp;
            makespan = Some 168;
            nodes = 94;
            failures = 95;
            propagations = 6649;
            solve_ms = 12.5;
            validate_ms = 0.25;
            crashes = 0;
            cached = false;
          };
      attempts = 2;
      wait_ms = 1.5;
      total_ms = 14.0;
      worker = 3;
    }
  in
  match Obs.Json.parse (W.response_line resp) with
  | Error e -> Alcotest.failf "response not json: %s" e
  | Ok j ->
    let str k =
      match Obs.Json.member k j with Some (Obs.Json.Str s) -> Some s | _ -> None
    in
    let num k =
      match Obs.Json.member k j with Some (Obs.Json.Num f) -> Some f | _ -> None
    in
    Alcotest.(check (option string)) "id" (Some "r1") (str "id");
    Alcotest.(check (option string)) "status" (Some "optimal") (str "status");
    Alcotest.(check (option string)) "engine" (Some "cp") (str "engine");
    Alcotest.(check bool) "code 0" true (num "code" = Some 0.);
    Alcotest.(check bool) "makespan" true (num "makespan" = Some 168.);
    Alcotest.(check bool) "retries = attempts-1" true (num "retries" = Some 1.);
    Alcotest.(check bool) "worker" true (num "worker" = Some 3.);
    Alcotest.(check bool) "cached flag present" true
      (Obs.Json.member "cached" j = Some (Obs.Json.Bool false))

(* ----------------------------- chaos soak ---------------------------- *)

(* The headline guarantee, under fire: 210 mixed requests (one in five
   malformed) against a 4-worker service with planned crashes, random
   delays and two wedges.  Every fault is planned from the seed
   ({!Fd.Chaos.plan}), and no healthy solve uses up its 10 s budget, so
   each response's (status, attempts) is known before the run: every
   request gets exactly that typed response, nothing hangs, the pool
   ends healthy, and the flight dumps hold every anomaly. *)
let i_mod5 id = int_of_string (String.sub id 1 3) mod 5

(* Request [seq]'s (status, attempts) as the plan makes it: its first
   attempt runs at site seq*8+1 and its one retry at seq*8+2; a crashed
   retry leaves the answer to the heuristic rescue. *)
let soak_expected chaos seq =
  if seq mod 5 = 4 then ("error", 0)
  else
    match Fd.Chaos.plan chaos ((seq * 8) + 1) with
    | None -> ("optimal", 1)
    | Some (Fd.Chaos.Wedge, _) -> ("wedged", 1)
    | Some (Fd.Chaos.Crash, _) -> (
      match Fd.Chaos.plan chaos ((seq * 8) + 2) with
      | None -> ("optimal", 2)
      | Some _ -> ("feasible_timeout", 2))

let test_chaos_soak metrics () =
  let n = 210 in
  let chaos =
    Fd.Chaos.create ~crash_prob:0.1 ~delay_prob:0.05 ~delay_ms:1.
      ~wedge_at:[ ((10 * 8) + 1, 1); ((100 * 8) + 1, 1) ] (* seq 10 and 100 *)
      ~wedge_max_ms:20_000. ~seed:42 ()
  in
  let expected = List.init n (soak_expected chaos) in
  (* the plan exercises both rescues: a retry that succeeds, and a
     crashed retry answered by the fallback *)
  let count p = List.length (List.filter p expected) in
  let retried = count (fun (_, a) -> a = 2) in
  let rescued = count (( = ) ("feasible_timeout", 2)) in
  Alcotest.(check bool)
    (Printf.sprintf "plan: %d retried, %d of them by the fallback" retried
       rescued)
    true
    (rescued > 0 && retried > rescued);
  (* flight recorder on, tail_keep off: the retention triggers left are
     the anomaly verdicts (error / expired / wedged / crashed / retried)
     and, with an enabled registry, "slow" (a live solve-time p99) — so
     with metrics off the dump set must equal the anomaly set exactly *)
  let flight_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "eitc-t-serve-flight-%d" (Unix.getpid ()))
  in
  let config =
    {
      S.pool = 4;
      queue = 256;
      default_budget_ms = 10_000.;
      grace_ms = 200.;
      watchdog_tick_ms = 10.;
      max_retries = 1;
      backoff_base_ms = 5.;
      seed = 42;
      chaos = Some chaos;
      cache_capacity = 0;
      metrics;
      flight_dir = Some flight_dir;
      flight_buf = 512;
      tail_keep = 0;
    }
  in
  let fir_xml =
    V.Xml.to_string (V.compile (Apps.Fir.graph (Apps.Fir.build ()))).V.ir
  in
  with_flight_dir flight_dir @@ fun () ->
  with_service config (fun svc ->
      (* submit strictly in order: the fault sites name specific
         sequence numbers, so request i must get seq i *)
      let tks =
        List.rev
          (List.fold_left
             (fun acc i ->
               let id = Printf.sprintf "s%03d" i in
               let req =
                 match i mod 5 with
                 | 0 -> S.request ~id ~deadline_ms:10_000. (S.Kernel "qrd")
                 | 1 -> S.request ~id ~deadline_ms:10_000. (S.Kernel "arf")
                 | 2 -> S.request ~id ~deadline_ms:10_000. (S.Kernel "matmul")
                 | 3 -> S.request ~id ~deadline_ms:10_000. (S.Xml_text fir_xml)
                 | _ -> S.request ~id (S.Kernel "no-such-kernel")
               in
               (id, S.submit svc req) :: acc)
             []
             (List.init n Fun.id))
      in
      let seen = Hashtbl.create n in
      let resps =
        List.map2
          (fun (id, tk) (want_st, want_attempts) ->
            let r = await_or_fail ~ms:60_000. tk in
            Alcotest.(check string) "response id matches" id r.S.r_id;
            Alcotest.(check bool) ("duplicate response for " ^ id) false
              (Hashtbl.mem seen id);
            Hashtbl.add seen id ();
            (* every reply is a typed verdict with a defined status/code *)
            let st = S.status_string r in
            Alcotest.(check bool) ("known status " ^ st) true
              (List.mem st
                 [ "optimal"; "feasible_timeout"; "infeasible"; "crashed";
                   "rejected_overload"; "expired"; "wedged"; "error" ]);
            if i_mod5 id = 4 then
              Alcotest.(check string) ("invalid -> error: " ^ id) "error" st;
            Alcotest.(check (pair string int))
              (id ^ ": (status, attempts) as planned")
              (want_st, want_attempts) (st, r.S.attempts);
            r)
          tks expected
      in
      let h = S.health svc in
      Alcotest.(check int) "all answered exactly once" n h.S.completed;
      Alcotest.(check int) "queue drained" 0 h.S.queue_depth;
      Alcotest.(check int) "pool fully alive" 4 h.S.alive;
      Alcotest.(check int) "invalids counted" (n / 5) h.S.invalid;
      Alcotest.(check int) "one retry per planned first-attempt crash"
        retried h.S.retries;
      let all_faults = Fd.Chaos.faults chaos in
      let wedge_faults =
        List.filter
          (fun f ->
            String.length f.Fd.Chaos.what >= 5
            && String.sub f.Fd.Chaos.what 0 5 = "wedge")
          all_faults
      in
      Alcotest.(check bool)
        (Printf.sprintf
           "both wedges caught and revived (wedged=%d revived=%d sites=[%s])"
           h.S.wedged h.S.revived
           (String.concat ";"
              (List.map (fun f -> string_of_int f.Fd.Chaos.site) wedge_faults)))
        true
        (h.S.wedged >= 2 && h.S.revived = h.S.wedged);
      (* the watchdog claims before it cancels, so a released wedge
         can never answer its own request first *)
      List.iter
        (fun (r : S.response) ->
          if r.S.r_id = "s010" || r.S.r_id = "s100" then
            Alcotest.(check string) (r.S.r_id ^ " answered by the watchdog")
              "wedged" (S.status_string r))
        resps;
      Alcotest.(check bool)
        (Printf.sprintf "faults were actually injected (%d)"
           (List.length all_faults))
        true (all_faults <> []);
      (* ------------- tail retention: dumps = anomaly set ------------- *)
      (* every completion settled its ring exactly once *)
      Alcotest.(check int) "kept + dropped = completed" n
        (h.S.flight_kept + h.S.flight_dropped);
      Alcotest.(check int) "every retained trace was dumped" h.S.flight_kept
        h.S.flight_dumped;
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      let dumps = Obs.Flight.dump_files flight_dir in
      Alcotest.(check int) "one dump file per retained trace"
        h.S.flight_dumped (List.length dumps);
      let dumps_for id = List.filter (fun p -> contains p ("-" ^ id ^ "-")) dumps in
      let anomalies = ref 0 in
      List.iter2
        (fun (r : S.response) planned ->
          (* everything but a healthy first-attempt answer is an
             anomaly, and the service always retains one *)
          let anomaly = planned <> ("optimal", 1) in
          if anomaly then incr anomalies;
          let got = List.length (dumps_for r.S.r_id) in
          if anomaly || metrics = None then
            Alcotest.(check int)
              (Printf.sprintf "%s (%s): %s" r.S.r_id (S.status_string r)
                 (if anomaly then "exactly one flight dump"
                  else "no flight dump"))
              (if anomaly then 1 else 0)
              got
          else
            Alcotest.(check bool)
              (r.S.r_id ^ ": at most one (slow) flight dump")
              true (got <= 1))
        resps expected;
      if metrics = None then
        Alcotest.(check int) "anomalies = retained traces" !anomalies
          h.S.flight_kept
      else
        Alcotest.(check bool)
          (Printf.sprintf "anomalies (%d) among retained traces (%d)"
             !anomalies h.S.flight_kept)
          true
          (!anomalies <= h.S.flight_kept);
      (* retention is selective: the anomaly slice (plus, with an
         enabled registry, the solve-time outliers), not the traffic —
         a request's queue position under the burst does not make it
         slow *)
      Alcotest.(check bool)
        (Printf.sprintf "most completions dropped (%d kept of %d)"
           h.S.flight_kept n)
        true
        (h.S.flight_kept < n / 2);
      (* each dump is a loadable, analyzable black box *)
      List.iter
        (fun p ->
          match Obs.Flight.load_dump p with
          | Error e -> Alcotest.failf "%s: %s" p e
          | Ok d -> (
            match Obs.Analyze.of_json (Obs.Flight.trace_of_dump d) with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s: analyze: %s" p e))
        dumps)

(* ------------------------- cached soak ------------------------------- *)

(* Repeat-heavy mix through a cache-enabled single-worker service: the
   first occurrence of each kernel misses, every repeat is answered
   from the cache, and the cached replies carry the exact solved
   payload of the first solve (status, code, engine, makespan). *)
let test_cached_soak () =
  let n = 40 in
  let config =
    {
      base_config with
      S.pool = 1;
      queue = 128;
      cache_capacity = 32;
    }
  in
  with_service config (fun svc ->
      let tks =
        List.init n (fun i ->
            let id = Printf.sprintf "c%03d" i in
            let kernel = if i mod 2 = 0 then "qrd" else "arf" in
            ( i,
              id,
              S.submit svc
                (S.request ~id ~budget_ms:10_000. ~deadline_ms:60_000.
                   (S.Kernel kernel)) ))
      in
      let first : (string, S.solved) Hashtbl.t = Hashtbl.create 2 in
      let seen = Hashtbl.create n in
      List.iter
        (fun (i, id, tk) ->
          let r = await_or_fail ~ms:60_000. tk in
          Alcotest.(check string) "response id" id r.S.r_id;
          Alcotest.(check bool) ("answered once: " ^ id) false
            (Hashtbl.mem seen id);
          Hashtbl.add seen id ();
          match r.S.reply with
          | S.Solved s ->
            let kernel = if i mod 2 = 0 then "qrd" else "arf" in
            Alcotest.(check bool) (id ^ " optimal") true
              (s.S.st = Sched.Solve.Optimal);
            (match Hashtbl.find_opt first kernel with
            | None ->
              (* first occurrence: a genuine solve, not a replay *)
              Alcotest.(check bool) (id ^ " first is cold") false s.S.cached;
              Hashtbl.add first kernel s
            | Some f ->
              Alcotest.(check bool) (id ^ " repeat is cached") true s.S.cached;
              (* the cached payload replays the first solve exactly *)
              Alcotest.(check bool) (id ^ " same status") true (s.S.st = f.S.st);
              Alcotest.(check bool) (id ^ " same engine") true
                (s.S.eng = f.S.eng);
              Alcotest.(check (option int)) (id ^ " same makespan")
                f.S.makespan s.S.makespan;
              Alcotest.(check int) (id ^ " replay does no search") 0 s.S.nodes)
          | _ -> Alcotest.failf "%s not solved" id)
        tks;
      let h = S.health svc in
      Alcotest.(check int) "all answered" n h.S.completed;
      Alcotest.(check int) "2 misses" 2 h.S.cache_misses;
      Alcotest.(check int) "every repeat hit" (n - 2) h.S.cache_hits;
      Alcotest.(check int) "nothing evicted" 0 h.S.cache_evictions)

(* A crashing attempt must never leave a poisoned cache entry: chaos
   runs bypass the cache wholesale — never consulted, never populated —
   and the retried solve still reports the true optimum. *)
let test_crashed_attempt_never_populates_cache () =
  let chaos = Fd.Chaos.create ~crash_at:[ (1, 1) ] ~seed:9 () in
  let config =
    {
      base_config with
      S.pool = 1;
      max_retries = 1;
      cache_capacity = 8;
      chaos = Some chaos;
    }
  in
  with_service config (fun svc ->
      let solve id =
        match
          (await_or_fail
             (S.submit svc
                (S.request ~id ~budget_ms:10_000. ~deadline_ms:60_000.
                   (S.Kernel "qrd"))))
            .S.reply
        with
        | S.Solved s -> s
        | _ -> Alcotest.failf "%s not solved" id
      in
      let a = solve "p1" in
      let b = solve "p2" in
      Alcotest.(check (option int)) "first retried to the optimum" (Some 168)
        a.S.makespan;
      Alcotest.(check (option int)) "second solved to the optimum" (Some 168)
        b.S.makespan;
      Alcotest.(check bool) "chaos runs never serve from cache" false
        (a.S.cached || b.S.cached);
      let h = S.health svc in
      Alcotest.(check int) "cache never hit under chaos" 0 h.S.cache_hits;
      Alcotest.(check int) "cache never consulted under chaos" 0
        h.S.cache_misses)

(* ------------------------ health = registry -------------------------- *)

(* [health] is a view over the service's registry: after a mixed
   session each of its 14 counter fields equals the same counter in the
   JSON snapshot and in the Prometheus text — whether the caller passed
   an enabled registry or left [metrics = None].  With an enabled
   registry the live p99 is also checked against the exact one. *)
let test_health_is_the_registry metrics () =
  let flight_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "eitc-t-serve-health-%d" (Unix.getpid ()))
  in
  let config =
    {
      base_config with
      S.pool = 1;
      queue = 1;
      cache_capacity = 8;
      metrics;
      flight_dir = Some flight_dir;
    }
  in
  with_flight_dir flight_dir @@ fun () ->
  with_service config @@ fun svc ->
  (* optimal, its cached repeat, an invalid kernel, a zero-budget
     fallback — one at a time, so none is shed *)
  let singles =
    List.map
      (fun r -> await_or_fail (S.submit svc r))
      [
        S.request ~id:"opt" ~budget_ms:10_000. (S.Kernel "qrd");
        S.request ~id:"hit" ~budget_ms:10_000. (S.Kernel "qrd");
        S.request ~id:"bad" (S.Kernel "no-such-kernel");
        S.request ~id:"fb" ~budget_ms:0. (S.Kernel "arf");
      ]
  in
  (* a burst on 1 worker and 1 queue slot: at most two are admitted *)
  let slow = renumbered_matmul () in
  let burst =
    List.map await_or_fail
      (List.init 6 (fun i ->
           S.submit svc
             (S.request ~id:(Printf.sprintf "b%d" i) ~budget_ms:200. slow)))
  in
  let responses = singles @ burst in
  S.shutdown svc;
  let h = S.health svc in
  let reg = S.metrics svc in
  let snap =
    match Obs.Json.member "counters" (Obs.Metrics.snapshot_json reg) with
    | Some c -> c
    | None -> Alcotest.fail "snapshot lacks counters"
  in
  let prom = String.split_on_char '\n' (Obs.Metrics.prometheus reg) in
  let snap_counter name =
    match Obs.Json.member name snap with
    | Some (Obs.Json.Num f) -> int_of_float f
    | _ -> Alcotest.failf "snapshot lacks counter %s" name
  in
  let prom_counter name =
    let key = String.map (function '.' -> '_' | c -> c) name ^ " " in
    let n = String.length key in
    match
      List.find_opt
        (fun l -> String.length l > n && String.sub l 0 n = key)
        prom
    with
    | Some l -> int_of_string (String.sub l n (String.length l - n))
    | None -> Alcotest.failf "prometheus text lacks counter %s" name
  in
  List.iter
    (fun (field, v, name) ->
      Alcotest.(check int) (field ^ " = snapshot " ^ name) v (snap_counter name);
      Alcotest.(check int) (field ^ " = prometheus " ^ name) v
        (prom_counter name))
    [
      ("submitted", h.S.submitted, "serve.submitted");
      ("shed", h.S.shed, "serve.status.rejected_overload");
      ("expired", h.S.expired, "serve.status.expired");
      ("wedged", h.S.wedged, "serve.status.wedged");
      ("retries", h.S.retries, "serve.retries");
      ("fallbacks", h.S.fallbacks, "serve.fallbacks");
      ("invalid", h.S.invalid, "serve.status.error");
      ("cache_hits", h.S.cache_hits, "cache.hits");
      ("cache_misses", h.S.cache_misses, "cache.misses");
      ("cache_evictions", h.S.cache_evictions, "cache.evictions");
      ("flight_kept", h.S.flight_kept, "flight.kept");
      ("flight_dropped", h.S.flight_dropped, "flight.dropped");
      ("flight_dumped", h.S.flight_dumped, "flight.dumped");
    ];
  let sum_status counter =
    List.fold_left
      (fun n s -> n + counter ("serve.status." ^ s))
      0
      [ "optimal"; "feasible_timeout"; "infeasible"; "crashed";
        "rejected_overload"; "expired"; "wedged"; "error" ]
  in
  Alcotest.(check int) "completed = sum of snapshot serve.status.*"
    h.S.completed (sum_status snap_counter);
  Alcotest.(check int) "completed = sum of prometheus serve_status_*"
    h.S.completed (sum_status prom_counter);
  Alcotest.(check int) "kept + dropped = completed" h.S.completed
    (h.S.flight_kept + h.S.flight_dropped);
  (* the session exercised what it claims to *)
  Alcotest.(check int) "all submitted" 10 h.S.submitted;
  Alcotest.(check int) "all completed" 10 h.S.completed;
  Alcotest.(check int) "one invalid" 1 h.S.invalid;
  Alcotest.(check bool) "burst shed" true (h.S.shed >= 4);
  Alcotest.(check bool) "repeat hit the cache" true (h.S.cache_hits >= 1);
  Alcotest.(check bool) "zero budget fell back" true (h.S.fallbacks >= 1);
  (* an enabled registry's latency histogram against ground truth: one
     observation per response, and its p99 within the histogram's
     error bound of the exact p99 of the same rank (the
     ceil(0.99 n)-th smallest total_ms) *)
  if Option.is_some metrics then begin
    let n = List.length responses in
    Alcotest.(check int) "one latency observation per response" n
      h.S.lat_total.Obs.Metrics.count;
    let sorted =
      List.sort compare (List.map (fun r -> r.S.total_ms) responses)
    in
    let rank = int_of_float (ceil (0.99 *. float_of_int n)) in
    let exact = List.nth sorted (rank - 1) in
    let live = h.S.lat_total.Obs.Metrics.p99 in
    let bound =
      Obs.Metrics.relative_error (Obs.Metrics.histogram reg "serve.total_ms")
    in
    if abs_float (live -. exact) > (bound *. exact) +. 1e-9 then
      Alcotest.failf "live p99 %.4f ms vs exact %.4f ms: beyond %.4f relative"
        live exact bound
  end;
  let dumps = Obs.Flight.dump_files flight_dir in
  Alcotest.(check int) "one dump per kept trace" h.S.flight_kept
    (List.length dumps)

(* after shutdown, submission is answered (shed), never hung *)
let test_submit_after_shutdown () =
  let svc = S.create ~config:{ base_config with S.pool = 1 } () in
  S.shutdown svc;
  let r = await_or_fail (S.submit svc (S.request ~id:"late" (S.Kernel "qrd"))) in
  Alcotest.(check bool) "shed" true (r.S.reply = S.Overloaded);
  (* idempotent *)
  S.shutdown svc

let suite =
  [
    Alcotest.test_case "solves kernels end to end" `Quick test_solves_kernels;
    Alcotest.test_case "deterministic, identical to direct solve" `Quick
      test_determinism_vs_direct;
    Alcotest.test_case "invalid requests answered, never fatal" `Quick
      test_invalid_requests_answered_not_fatal;
    Alcotest.test_case "overload sheds with typed verdict" `Quick
      test_overload_sheds;
    Alcotest.test_case "deadline expires in queue -> fast fail" `Quick
      test_deadline_expires_in_queue;
    Alcotest.test_case "retry rescues poisoned attempt" `Quick
      test_retry_rescues_poisoned_attempt;
    Alcotest.test_case "retry bounded by remaining deadline" `Quick
      test_retry_bounded_by_deadline;
    Alcotest.test_case "wedge detected, worker revived" `Quick
      test_wedge_detected_and_worker_revived;
    Alcotest.test_case "wedge ceiling bounds the spin" `Quick
      test_wedge_ceiling_without_watchdog;
    Alcotest.test_case "trace tagged with request ids" `Quick
      test_trace_tagged_with_request_ids;
    Alcotest.test_case "wire: request parsing" `Quick test_wire_requests;
    Alcotest.test_case "wire: response json" `Quick test_wire_response_roundtrip;
    Alcotest.test_case "chaos soak: 210 mixed requests" `Slow
      (test_chaos_soak None);
    Alcotest.test_case "cached soak: repeat-heavy mix" `Slow test_cached_soak;
    Alcotest.test_case "crashed attempt never populates cache" `Quick
      test_crashed_attempt_never_populates_cache;
    Alcotest.test_case "submit after shutdown is shed" `Quick
      test_submit_after_shutdown;
    Alcotest.test_case "health = registry (metrics = None)" `Quick
      (test_health_is_the_registry None);
    Alcotest.test_case "health = registry (enabled registry)" `Quick
      (test_health_is_the_registry (Some (Obs.Metrics.create ())));
    Alcotest.test_case "op wider than the machine -> infeasible" `Quick
      test_too_wide_op_infeasible;
    Alcotest.test_case "chaos soak: enabled registry" `Slow
      (test_chaos_soak (Some (Obs.Metrics.create ())));
  ]

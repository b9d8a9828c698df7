(* The status taxonomy is shared with the solver layer so callers can
   pattern-match either name. *)
type status = Fd.Search.status =
  | Optimal
  | Feasible_timeout
  | Infeasible
  | Crashed

let pp_status = Fd.Search.pp_status

type engine = Cp | Fallback

let pp_engine ppf = function
  | Cp -> Format.pp_print_string ppf "cp"
  | Fallback -> Format.pp_print_string ppf "fallback"

type outcome = {
  status : status;
  engine : engine;
  schedule : Schedule.t option;
  stats : Fd.Search.stats;
  crashes : Fd.Portfolio.worker_crash list;
  fallback_error : string option;
  validation : (unit, Validate.report) result;
  from_cache : bool;
  validate_ms : float;
}

(* One observation per solve into the caller's live-metrics registry,
   when it hands an enabled one — the work-per-solve distributions of
   the serving layer.  Solver work is recorded here and nowhere else. *)
let record_metrics metrics (o : outcome) =
  (match metrics with
  | Some reg when Obs.Metrics.is_enabled reg ->
    let h name = Obs.Metrics.histogram reg name in
    Obs.Metrics.observe (h "solve.nodes") (float_of_int o.stats.Fd.Search.nodes);
    Obs.Metrics.observe (h "solve.propagations")
      (float_of_int o.stats.Fd.Search.propagations);
    Obs.Metrics.observe (h "solve.time_ms") o.stats.Fd.Search.time_ms;
    Obs.Metrics.observe (h "solve.validate_ms") o.validate_ms;
    Obs.Metrics.incr (Obs.Metrics.counter reg "solve.count")
  | _ -> ());
  o

(* The portfolio's strategy templates, in fixed order.  Strategy 0 is
   the sequential default (paper §3.5 phases), so a portfolio run
   subsumes the sequential one; the others diversify the first phase's
   heuristics and add a Luby-restart worker. *)
let strategy_templates =
  [
    ("default", None, false);
    ("first-fail", Some (Fd.Search.first_fail, Fd.Search.select_min), false);
    ("most-constrained-mid", Some (Fd.Search.most_constrained, Fd.Search.select_mid), false);
    ("input-order-luby", Some (Fd.Search.input_order, Fd.Search.select_min), true);
  ]

let portfolio_strategies ?deadline ~memory g arch n =
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  (* cycle the templates if more workers than templates are requested *)
  let templates =
    let rec cycle acc k =
      if k <= 0 then List.rev acc
      else
        let needed = take (min k (List.length strategy_templates)) strategy_templates in
        cycle (List.rev_append needed acc) (k - List.length needed)
    in
    cycle [] n
  in
  List.map
    (fun (_, override, restarts) () ->
      let m = Model.build ?deadline ~memory g arch in
      let phases =
        match (override, Model.phases m) with
        | Some (var_select, val_select), p1 :: rest ->
          { p1 with Fd.Search.var_select; val_select } :: rest
        | _, phases -> phases
      in
      {
        Fd.Portfolio.store = m.Model.store;
        phases;
        objective = m.Model.makespan;
        snapshot = (fun () -> Model.extract m);
        restarts;
      })
    templates

(* The CP attempt, repackaged so nothing escapes: status + optional
   incumbent + stats + worker crashes.  The phases of the solve — model
   build, CP search, fallback, validation — are each wrapped in an
   [Obs] span (cat "sched"), so `--trace` shows where the wall-clock
   went. *)
let run_cp ~budget ~deadline ~chaos ~chaos_base ~memory ~arch
    ~parallel ~tid g =
  if parallel >= 2 then
    let r =
      Obs.span ~cat:"sched" ~tid "cp-search" (fun () ->
          Fd.Portfolio.minimize_result ~budget ~deadline ?chaos ~chaos_base
            (portfolio_strategies ~deadline ~memory g arch parallel))
    in
    (r.Fd.Portfolio.r_status, r.Fd.Portfolio.incumbent, r.Fd.Portfolio.r_stats,
     r.Fd.Portfolio.crashes)
  else
    match
      Obs.span ~cat:"sched" ~tid "model-build" (fun () ->
          Model.build ~deadline ~memory g arch)
    with
    | exception Fd.Store.Fail _ ->
      (Infeasible, None, Fd.Search.zero_stats ~optimal:true, [])
    | exception Fd.Store.Interrupted _ ->
      (Feasible_timeout, None, Fd.Search.zero_stats ~optimal:false, [])
    | exception e ->
      ( Crashed,
        None,
        Fd.Search.zero_stats ~optimal:false,
        [ { Fd.Portfolio.worker = 0; reason = Printexc.to_string e } ] )
    | m ->
      (match chaos with
      | Some c -> Fd.Chaos.instrument c ~site:chaos_base m.Model.store
      | None -> ());
      let a =
        Obs.span ~cat:"sched" ~tid "cp-search" (fun () ->
            Fd.Search.minimize_anytime ~budget ~deadline ~tid m.Model.store
              (Model.phases m) ~objective:m.Model.makespan
              ~on_solution:(fun () -> Model.extract m))
      in
      Fd.Store.emit_profile ~tid m.Model.store;
      let crashes =
        match a.Fd.Search.crash with
        | Some reason -> [ { Fd.Portfolio.worker = 0; reason } ]
        | None -> []
      in
      (a.Fd.Search.a_status, a.Fd.Search.incumbent, a.Fd.Search.a_stats, crashes)

(* Rebuild a cached schedule onto the requesting graph: the payload
   lives in canonical index space, so an isomorphic request maps it
   through its own canonical permutation.  Every hit is re-validated
   from scratch before anyone sees it; anything that fails — a corrupt
   persisted entry, a mismatched size — is reported as [None] and the
   caller drops the entry and solves cold.  The slot list is rebuilt in
   descending node-id order, matching what [Model.extract] produces, so
   a hit is byte-identical to the cold solve it replays. *)
let replay_hit ~memory ~arch ~tid ~vms g (canon : Cache.Key.canon) payload =
  match payload with
  | Cache.Infeasible -> Some (Infeasible, None)
  | Cache.Schedule { start; slot; makespan } -> (
    let rebuilt =
      try
        let n = Eit_dsl.Ir.size g in
        if
          Array.length start <> n
          || Array.length canon.Cache.Key.to_canon <> n
        then None
        else
          let start =
            Array.init n (fun id -> start.(canon.Cache.Key.to_canon.(id)))
          in
          let slot =
            List.map (fun (ci, s) -> (canon.Cache.Key.of_canon.(ci), s)) slot
            |> List.sort (fun (a, _) (b, _) -> compare b a)
          in
          Some { Schedule.ir = g; arch; start; slot; makespan }
      with _ -> None
    in
    match rebuilt with
    | None -> None
    | Some sch -> (
      let t0 = Obs.now_us () in
      let fin r =
        vms := !vms +. ((Obs.now_us () -. t0) /. 1000.);
        r
      in
      match
        Obs.span ~cat:"sched" ~tid "cache-validate" (fun () ->
            Validate.schedule ~memory sch)
      with
      | Ok () -> fin (Some (Optimal, Some sch))
      | Error _ | (exception _) -> fin None))

let run ?(budget = Fd.Search.time_budget 10_000.) ?(deadline = Fd.Deadline.none)
    ?(memory = true) ?(arch = Eit.Arch.default) ?(parallel = 0) ?chaos
    ?(chaos_base = 0) ?(fallback = true) ?(tid = 0) ?cache ?metrics g =
  (* Wall-clock spent in the independent validator for this request
     (normal, fallback and cache-hit validations all accumulate). *)
  let vms = ref 0. in
  let deadline =
    Fd.Deadline.earliest deadline
      (Fd.Deadline.of_time_budget budget.Fd.Search.max_time_ms)
  in
  (* Fault injection makes a run's result a fact about the injected
     faults, not the problem — chaos runs neither consult nor populate
     the cache. *)
  let canon_key =
    match cache with
    | Some _ when chaos = None ->
      let canon =
        Obs.span ~cat:"sched" ~tid "cache-key" (fun () ->
            Cache.Key.canonicalize g)
      in
      let opts =
        {
          Cache.Key.memory;
          parallel;
          max_nodes = budget.Fd.Search.max_nodes;
          max_time_ms = budget.Fd.Search.max_time_ms;
        }
      in
      Some (canon, Cache.Key.make canon arch opts)
    | _ -> None
  in
  let hit =
    match (cache, canon_key) with
    | Some c, Some (canon, key) -> (
      match Cache.find c key with
      | None -> None
      | Some payload -> (
        match replay_hit ~memory ~arch ~tid ~vms g canon payload with
        | Some (status, schedule) ->
          Some
            {
              status;
              engine = Cp;
              schedule;
              stats = Fd.Search.zero_stats ~optimal:true;
              crashes = [];
              fallback_error = None;
              validation = Ok ();
              from_cache = true;
              validate_ms = !vms;
            }
        | None ->
          Cache.remove c key;
          None))
    | _ -> None
  in
  match hit with
  | Some o -> record_metrics metrics o
  | None ->
  let cp_status, cp_incumbent, stats, crashes =
    (* A deadline already in the past and a zero time budget are the
       same request — "no search time at all" — and must behave the
       same: go straight to the degradation ladder without touching the
       engine (previously the past-deadline case still entered model
       build only to be interrupted mid-root-propagation, while budget 0
       short-circuited differently; a request that expired while queued
       must not burn solver time). *)
    if Fd.Deadline.expired deadline then
      (Feasible_timeout, None, Fd.Search.zero_stats ~optimal:false, [])
    else
      run_cp ~budget ~deadline ~chaos ~chaos_base ~memory ~arch
        ~parallel ~tid g
  in
  let check sch ~memory =
    let t0 = Obs.now_us () in
    let r =
      Obs.span ~cat:"sched" ~tid "validate" (fun () ->
          Validate.schedule ~memory sch)
    in
    vms := !vms +. ((Obs.now_us () -. t0) /. 1000.);
    r
  in
  (* Degradation ladder: a CP incumbent that passes the independent
     validator wins; otherwise the heuristic fallback is tried (also
     validated); an infeasibility proof needs no schedule at all. *)
  let cp_checked =
    match cp_incumbent with
    | Some sch -> Some (sch, check sch ~memory)
    | None -> None
  in
  let o =
    match (cp_status, cp_checked) with
    | Infeasible, _ ->
      { status = Infeasible; engine = Cp; schedule = None; stats; crashes;
        fallback_error = None; validation = Ok (); from_cache = false;
        validate_ms = !vms }
    | _, Some (sch, Ok ()) ->
      { status = cp_status; engine = Cp; schedule = Some sch; stats; crashes;
        fallback_error = None; validation = Ok (); from_cache = false;
        validate_ms = !vms }
    | _, cp_checked -> (
      (* Either CP found nothing, or what it found fails validation (a
         solver or chaos casualty).  Keep the bad schedule's report. *)
      let cp_report =
        match cp_checked with Some (_, Error r) -> Some r | _ -> None
      in
      let fb =
        if fallback then
          Obs.span ~cat:"sched" ~tid "fallback" (fun () -> Heuristic.run ~arch g)
        else Error "fallback disabled"
      in
      match fb with
      | Ok sch -> (
        match check sch ~memory:true with
        | Ok () ->
          (* A fallback result is never optimal and never hides a crash:
             the status says the degradation path was taken. *)
          { status = Feasible_timeout; engine = Fallback; schedule = Some sch;
            stats; crashes; fallback_error = None; validation = Ok ();
            from_cache = false; validate_ms = !vms }
        | Error r ->
          { status = Crashed; engine = Fallback; schedule = None; stats;
            crashes; fallback_error = None; validation = Error r;
            from_cache = false; validate_ms = !vms })
      | Error reason ->
        let validation =
          match cp_report with Some r -> Error r | None -> Ok ()
        in
        (* the greedy failing is no crash: nothing escaped *)
        let fallback_error = if fallback then Some reason else None in
        let status =
          match cp_status with
          | Crashed -> Crashed
          | _ when cp_report <> None ->
            Crashed (* CP produced garbage and no fallback rescued it *)
          | _ -> Feasible_timeout (* an honest timeout, nothing crashed *)
        in
        { status; engine = Cp; schedule = None; stats; crashes; fallback_error;
          validation; from_cache = false; validate_ms = !vms })
  in
  (* Populate the cache only with deadline-independent facts about the
     problem: a proven-optimal schedule that passed validation, or a
     crash-free infeasibility proof from the CP engine.  Timeouts,
     fallback rescues and crashed runs never enter — a poisoned entry
     would outlive the incident that caused it. *)
  (match (cache, canon_key) with
  | Some c, Some (canon, key) -> (
    match (o.status, o.engine, o.schedule) with
    | Optimal, Cp, Some sch when o.validation = Ok () ->
      let n = Eit_dsl.Ir.size g in
      let start =
        Array.init n (fun ci ->
            sch.Schedule.start.(canon.Cache.Key.of_canon.(ci)))
      in
      let slot =
        List.map
          (fun (id, s) -> (canon.Cache.Key.to_canon.(id), s))
          sch.Schedule.slot
        |> List.sort compare
      in
      Cache.store c key
        (Cache.Schedule { start; slot; makespan = sch.Schedule.makespan })
    | Infeasible, Cp, None when o.crashes = [] ->
      Cache.store c key Cache.Infeasible
    | _ -> ())
  | _ -> ());
  record_metrics metrics o

let exit_code o =
  match (o.status, o.schedule, o.engine) with
  | Optimal, _, _ -> 0
  | Feasible_timeout, Some _, Cp -> 0
  | Feasible_timeout, Some _, Fallback -> 2
  | Infeasible, _, _ -> 3
  | (Feasible_timeout | Crashed), _, _ -> 4 (* no usable schedule *)

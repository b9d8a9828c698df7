(* Parallel portfolio search on OCaml 5 domains.

   Each strategy thunk builds its own independent store/model (stores
   are not thread-safe; sharing one across domains is unsound) and runs
   branch & bound over it.  The only shared state is one atomic
   incumbent bound: every worker publishes improving objective values
   and re-reads the global bound at each choice point, so one worker's
   solution prunes everyone else's tree (cooperative B&B).

   Under a node budget the portfolio's best bound is never worse than
   running the first strategy alone with the same budget: pruning with a
   foreign incumbent only skips subtrees that cannot contain a strictly
   better solution.

   Robustness: a worker that dies (propagator bug, injected fault) is
   isolated — its crash is recorded, its last incumbent snapshot is
   salvaged, and the remaining workers still prove or return the
   incumbent.  Optimality is only claimed when the snapshot we hold is
   at least as good as the best bound ever published: a proof obtained
   by pruning against a crashed worker's (lost) incumbent must not
   promote a worse surviving solution to "optimal". *)

type 'a task = {
  store : Store.t;
  phases : Search.phase list;
  objective : Store.var;
  snapshot : unit -> 'a;
  restarts : bool;  (* run under a Luby restart policy *)
}

type 'a strategy = unit -> 'a task

(* The shared incumbent: max_int encodes "no solution yet". *)
let atomic_min cell v =
  let rec go () =
    let cur = Atomic.get cell in
    if v < cur && not (Atomic.compare_and_set cell cur v) then go ()
  in
  go ()

type worker_crash = { worker : int; reason : string }

type 'a result = {
  incumbent : 'a option;
  r_status : Search.status;
  r_stats : Search.stats;
  crashes : worker_crash list;
}

type 'a worker_result = {
  outcome : ('a * int) Search.outcome option;  (* None: no regular outcome *)
  salvage : ('a * int) option;  (* last incumbent of a crashed worker *)
  crash : string option;
  proof : bool;      (* exhausted its search space *)
  infeasible : bool; (* model construction already failed *)
  wstats : Search.stats;
}

let run_worker incumbent budget deadline chaos chaos_base widx strat =
  let bound_get () =
    let b = Atomic.get incumbent in
    if b = max_int then None else Some b
  in
  let bound_put v = atomic_min incumbent v in
  match strat () with
  | exception Store.Fail _ ->
    {
      outcome = None;
      salvage = None;
      crash = None;
      proof = true;
      infeasible = true;
      wstats = Search.zero_stats ~optimal:true;
    }
  | exception e ->
    (* The model builder itself crashed — not a proof of anything. *)
    {
      outcome = None;
      salvage = None;
      crash = Some (Printexc.to_string e);
      proof = false;
      infeasible = false;
      wstats = Search.zero_stats ~optimal:false;
    }
  | task ->
    (* Name this worker's trace track up front ("worker-N" instead of a
       bare tid in Perfetto and in Analyze's reports). *)
    if Obs.enabled () then
      Obs.thread_name ~cat:"search" ~tid:widx
        (Printf.sprintf "worker-%d" widx);
    (match chaos with
    | Some c -> Chaos.instrument c ~site:(chaos_base + widx) task.store
    | None -> ());
    let last = ref None in
    let on_solution () =
      let s = (task.snapshot (), Store.vmin task.objective) in
      last := Some s;
      s
    in
    let search () =
      if task.restarts then
        Search.minimize_restarts ?budget ?deadline ~bound_get ~bound_put
          ~tid:widx task.store task.phases ~objective:task.objective
          ~on_solution
      else
        Search.minimize ?budget ?deadline ~bound_get ~bound_put ~tid:widx
          task.store task.phases ~objective:task.objective ~on_solution
    in
    (* Each worker contributes its store's per-propagator profile to the
       trace, tagged with its index, so hot-spot tables can be compared
       across strategies. *)
    let finish r =
      Store.emit_profile ~tid:widx task.store;
      r
    in
    (match search () with
    | outcome ->
      let proof, wstats =
        match outcome with
        | Search.Solution (_, st) | Search.Unsat st -> (st.Search.optimal, st)
        | Search.Best (_, st) | Search.Timeout st -> (false, st)
      in
      finish
        {
          outcome = Some outcome;
          salvage = None;
          crash = None;
          proof;
          infeasible = false;
          wstats;
        }
    | exception e ->
      (* Crashed mid-search: salvage the last incumbent snapshot.  The
         other workers are unaffected — they only share the atomic
         bound. *)
      finish
        {
          outcome = None;
          salvage = !last;
          crash = Some (Printexc.to_string e);
          proof = false;
          infeasible = false;
          wstats = Search.zero_stats ~optimal:false;
        })

let minimize_result ?budget ?deadline ?chaos ?(chaos_base = 0) ?workers
    strategies =
  let strategies =
    match workers with
    | Some n when n >= 1 && n < List.length strategies ->
      List.filteri (fun i _ -> i < n) strategies
    | _ -> strategies
  in
  if strategies = [] then invalid_arg "Portfolio.minimize_result: no strategies";
  let t0 = Unix.gettimeofday () in
  let incumbent = Atomic.make max_int in
  let spawn_and_join () =
    match strategies with
    | [ only ] -> [ run_worker incumbent budget deadline chaos chaos_base 0 only ]
    | _ ->
      let domains =
        List.mapi
          (fun i strat ->
            Domain.spawn (fun () ->
                (* Nothing may escape the worker function: Domain.join
                   re-raises, which would crash the whole portfolio. *)
                try run_worker incumbent budget deadline chaos chaos_base i strat
                with e ->
                  {
                    outcome = None;
                    salvage = None;
                    crash = Some (Printexc.to_string e);
                    proof = false;
                    infeasible = false;
                    wstats = Search.zero_stats ~optimal:false;
                  }))
          strategies
      in
      List.map Domain.join domains
  in
  let results =
    if Obs.enabled () then
      Obs.span ~cat:"search"
        ~args:[ ("workers", Obs.I (List.length strategies)) ]
        "portfolio" spawn_and_join
    else spawn_and_join ()
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (* Merge: nodes/failures/propagations sum across workers; time is the
     portfolio's wall clock; optimal if any worker exhausted its tree. *)
  let any_proof = List.exists (fun r -> r.proof) results in
  let all_infeasible = List.for_all (fun r -> r.infeasible) results in
  let crashes =
    List.concat
      (List.mapi
         (fun i r ->
           match r.crash with
           | Some reason -> [ { worker = i; reason } ]
           | None -> [])
         results)
  in
  let stats =
    List.fold_left
      (fun acc r ->
        {
          acc with
          Search.nodes = acc.Search.nodes + r.wstats.Search.nodes;
          failures = acc.Search.failures + r.wstats.Search.failures;
          solutions = acc.Search.solutions + r.wstats.Search.solutions;
          propagations = acc.Search.propagations + r.wstats.Search.propagations;
        })
      { (Search.zero_stats ~optimal:any_proof) with Search.time_ms = wall_ms }
      results
  in
  let best =
    List.fold_left
      (fun acc r ->
        let candidates =
          (match r.outcome with
          | Some (Search.Solution (sv, _)) | Some (Search.Best (sv, _)) -> [ sv ]
          | _ -> [])
          @ (match r.salvage with Some sv -> [ sv ] | None -> [])
        in
        List.fold_left
          (fun acc (snap, v) ->
            match acc with
            | Some (_, v0) when v0 <= v -> acc
            | _ -> Some (snap, v))
          acc candidates)
      None results
  in
  let published = Atomic.get incumbent in
  let r_status, incumbent_snap =
    match best with
    | Some (snap, v) ->
      (* A proof only makes [snap] optimal if no strictly better bound
         was ever published (a crashed worker may have found — and
         lost — a better solution the proofs pruned against). *)
      if any_proof && v <= published then (Search.Optimal, Some snap)
      else (Search.Feasible_timeout, Some snap)
    | None ->
      if crashes = [] && (any_proof || all_infeasible) then
        (Search.Infeasible, None)
      else if crashes = [] then (Search.Feasible_timeout, None)
      else (Search.Crashed, None)
  in
  { incumbent = incumbent_snap; r_status; r_stats = stats; crashes }

module Vecsched = Vecsched_core.Vecsched

type workload = Kernel of string | Xml_text of string | Xml_file of string

type request = {
  id : string;
  workload : workload;
  slots : int option;
  preset : string option;
  budget_ms : float option;
  deadline_ms : float option;
  retries : int option;
}

let request ?slots ?preset ?budget_ms ?deadline_ms ?retries ~id workload =
  { id; workload; slots; preset; budget_ms; deadline_ms; retries }

type solved = {
  st : Sched.Solve.status;
  eng : Sched.Solve.engine;
  makespan : int option;
  nodes : int;
  failures : int;
  propagations : int;
  solve_ms : float;
  validate_ms : float;
  crashes : int;
  cached : bool;
}

type reply =
  | Solved of solved
  | Overloaded
  | Expired
  | Wedged of string
  | Invalid of string

type response = {
  r_id : string;
  reply : reply;
  attempts : int;
  wait_ms : float;
  total_ms : float;
  worker : int;
}

type config = {
  pool : int;
  queue : int;
  default_budget_ms : float;
  grace_ms : float;
  watchdog_tick_ms : float;
  max_retries : int;
  backoff_base_ms : float;
  seed : int;
  chaos : Fd.Chaos.t option;
  cache_capacity : int;
  metrics : Obs.Metrics.registry option;
  flight_dir : string option;
  flight_buf : int;
  tail_keep : int;
}

let default_config =
  {
    pool = 4;
    queue = 64;
    default_budget_ms = 10_000.;
    grace_ms = 2_000.;
    watchdog_tick_ms = 25.;
    max_retries = 1;
    backoff_base_ms = 25.;
    seed = 0;
    chaos = None;
    cache_capacity = 0;
    metrics = None;
    flight_dir = None;
    flight_buf = 4096;
    tail_keep = 0;
  }

(* One-shot response cell.  [fulfil] is idempotent and returns whether
   this call won — the worker and the watchdog can race to answer the
   same request (a "wedged" verdict vs. a slow-but-live solve) and
   exactly one of them delivers. *)
type ticket = {
  tm : Mutex.t;
  tc : Condition.t;
  mutable tr : response option;
  mutable claimed : bool;
      (* two-phase completion: the winner is decided by [claim] before
         any completion side effect (metrics, flight-ring settle) runs,
         and the response is only published afterwards — so once
         [await] returns, every counter the completion touched has
         already been bumped. *)
  mutable cb : (response -> unit) option;
}

let claim tk =
  Mutex.lock tk.tm;
  let won = (not tk.claimed) && tk.tr = None in
  if won then tk.claimed <- true;
  Mutex.unlock tk.tm;
  won

let fulfil tk resp =
  Mutex.lock tk.tm;
  let won = tk.tr = None in
  let cb = if won then tk.cb else None in
  if won then begin
    tk.tr <- Some resp;
    tk.cb <- None;
    Condition.broadcast tk.tc
  end;
  Mutex.unlock tk.tm;
  (* The callback runs outside the ticket lock: it may take other
     locks (the CLI's stdout mutex, a test's aggregation lock). *)
  (match cb with Some f -> ( try f resp with _ -> ()) | None -> ());
  won

let await tk =
  Mutex.lock tk.tm;
  while tk.tr = None do
    Condition.wait tk.tc tk.tm
  done;
  let r = Option.get tk.tr in
  Mutex.unlock tk.tm;
  r

let peek tk =
  Mutex.lock tk.tm;
  let r = tk.tr in
  Mutex.unlock tk.tm;
  r

type job = {
  jr : request;
  seq : int; (* admission index: keys the chaos site ids and jitter *)
  dl : Fd.Deadline.t; (* absolute end-to-end deadline, switch attached *)
  sw : Fd.Deadline.switch;
  t_admit : float;
  tk : ticket;
}

type health = {
  alive : int;
  queue_depth : int;
  revived : int;
  zombies : int;
  submitted : int;
  completed : int;
  shed : int;
  expired : int;
  wedged : int;
  retries : int;
  fallbacks : int;
  invalid : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  flight_kept : int;
  flight_dropped : int;
  flight_dumped : int;
  lat_total : Obs.Metrics.hstats;
  lat_queue : Obs.Metrics.hstats;
  lat_solve : Obs.Metrics.hstats;
  slo : Obs.Metrics.slo_stats;
}

(* Live-metrics instruments, interned once at [create] so the
   per-request path never takes the registry lookup lock.  The counters
   are the service's only request tallies: {!health} reads them back. *)
type instruments = {
  reg : Obs.Metrics.registry;
  h_queue : Obs.Metrics.histogram;
  h_solve : Obs.Metrics.histogram;
  h_validate : Obs.Metrics.histogram;
  h_total : Obs.Metrics.histogram;
  h_attempts : Obs.Metrics.histogram;
  s_slo : Obs.Metrics.slo;
  g_depth : Obs.Metrics.gauge;
  c_submitted : Obs.Metrics.counter;
  c_retries : Obs.Metrics.counter;
  c_fallbacks : Obs.Metrics.counter;
  c_status : (string * Obs.Metrics.counter) list;
      (* [serve.status.<status>], one per {!statuses} entry *)
}

(* Every value {!status_string} returns. *)
let statuses =
  [ "optimal"; "feasible_timeout"; "infeasible"; "crashed";
    "rejected_overload"; "expired"; "wedged"; "error" ]

let make_instruments reg =
  let counter name = Obs.Metrics.counter reg name in
  {
    reg;
    h_queue = Obs.Metrics.histogram reg "serve.queue_wait_ms";
    h_solve = Obs.Metrics.histogram reg "serve.solve_ms";
    h_validate = Obs.Metrics.histogram reg "serve.validate_ms";
    h_total = Obs.Metrics.histogram reg "serve.total_ms";
    h_attempts = Obs.Metrics.histogram reg "serve.attempts";
    s_slo = Obs.Metrics.slo reg "serve.slo";
    g_depth = Obs.Metrics.gauge reg "serve.queue_depth";
    c_submitted = counter "serve.submitted";
    c_retries = counter "serve.retries";
    c_fallbacks = counter "serve.fallbacks";
    c_status = List.map (fun s -> (s, counter ("serve.status." ^ s))) statuses;
  }

(* What a worker (and the watchdog) needs: built before the pool so the
   body closures never reach through the not-yet-constructed handle. *)
type ctx = {
  cfg : config;
  kernels : (string * Eit_dsl.Ir.t) list;
  q : job Queue.t;
  cache : Cache.t option;
      (* one shared solution cache for the whole service (the Cache
         module locks internally); [None] when [cache_capacity = 0] *)
  mx : instruments;
  flight : Obs.Flight.t option;
      (* tail retention: present iff [flight_dir] is set — every
         request records into a per-worker ring and the completion
         path decides keep vs. drop ({!retention_reason}) *)
}

type t = {
  ctx : ctx;
  pool : job Pool.t;
  seq : int Atomic.t;
  wd_stop : bool Atomic.t;
  wd : unit Domain.t;
  fl_h : Obs.handle option; (* the flight recorder's sink registration *)
  shut_m : Mutex.t;
  mutable shut : bool;
}

(* ------------------------------------------------------------------ *)
(* Workload resolution: every way a request can be malformed — unknown
   kernel or preset, XML that does not parse — becomes a typed
   per-request [Invalid], never an escaping exception. *)

(* Compiled (merged) graphs for every built-in kernel, built eagerly at
   [create]: worker domains must never race a lazy cell. *)
let compile_kernels () =
  List.map
    (fun (name, build) -> (name, (Vecsched.compile (build ())).Vecsched.ir))
    Vecsched.kernels

let resolve_arch req =
  let preset =
    match req.preset with
    | None -> Ok Eit.Arch.default
    | Some n -> (
      match List.assoc_opt n Eit.Arch.presets with
      | Some a -> Ok a
      | None ->
        Error
          (Printf.sprintf "unknown arch preset %S (known: %s)" n
             (String.concat ", " (List.map fst Eit.Arch.presets))))
  in
  match (preset, req.slots) with
  | (Error _ as e), _ -> e
  | Ok a, None -> Ok a
  | Ok a, Some n ->
    if n < 1 then Error (Printf.sprintf "slots must be >= 1 (got %d)" n)
    else Ok (Eit.Arch.with_slots a n)

let resolve_graph kernels = function
  | Kernel k -> (
    match List.assoc_opt k kernels with
    | Some g -> Ok g
    | None ->
      Error
        (Printf.sprintf "unknown kernel %S (known: %s)" k
           (String.concat ", " (List.map fst Vecsched.kernels))))
  | Xml_text s -> (
    match Vecsched.Xml.parse s with
    | Ok g -> (
      try Ok (Vecsched.compile g).Vecsched.ir
      with e -> Error (Printexc.to_string e))
    | Error e -> Error (Format.asprintf "xml: %a" Vecsched.Xml.pp_error e))
  | Xml_file path -> (
    match Vecsched.Xml.load_file path with
    | Ok g -> (
      try Ok (Vecsched.compile g).Vecsched.ir
      with e -> Error (Printexc.to_string e))
    | Error e -> Error (Format.asprintf "%s: %a" path Vecsched.Xml.pp_error e)
    | exception Sys_error m -> Error m)

(* ------------------------------------------------------------------ *)

let now () = Unix.gettimeofday ()
let ms_since t0 = (now () -. t0) *. 1000.

let obs_instant name id =
  if Obs.enabled () then
    Obs.instant ~cat:"serve" ~args:[ ("request_id", Obs.S id) ] name

let status_string r =
  match r.reply with
  | Solved { st = Sched.Solve.Optimal; _ } -> "optimal"
  | Solved { st = Sched.Solve.Feasible_timeout; _ } -> "feasible_timeout"
  | Solved { st = Sched.Solve.Infeasible; _ } -> "infeasible"
  | Solved { st = Sched.Solve.Crashed; _ } -> "crashed"
  | Overloaded -> "rejected_overload"
  | Expired -> "expired"
  | Wedged _ -> "wedged"
  | Invalid _ -> "error"

let exit_code r =
  match r.reply with
  | Solved s -> (
    match (s.st, s.eng, s.makespan) with
    | Sched.Solve.Optimal, _, _ -> 0
    | Sched.Solve.Feasible_timeout, Sched.Solve.Cp, Some _ -> 0
    | Sched.Solve.Feasible_timeout, Sched.Solve.Fallback, Some _ -> 2
    | Sched.Solve.Infeasible, _, _ -> 3
    | _ -> 4)
  | Overloaded -> 5
  | Expired -> 6
  | Wedged _ -> 4
  | Invalid _ -> 7

(* ------------------------------------------------------------------ *)
(* Tail retention: with a flight recorder attached, the completion
   path decides which requests keep their in-ring trace.  Always keep
   anomalies (errors, expiries, wedges, crashes, retried attempts);
   keep healthy requests whose solve took at least the live
   [serve.solve_ms] p99 once that histogram has warmed up; keep a
   deterministic 1-in-[tail_keep] slice of the rest; drop everything
   else without serializing it.  "Slow" judges what the ring recorded:
   a worker's ring is reset when it dequeues the request, so the ring
   holds the execution, not the queue wait — and under a burst, queue
   position alone would make most late requests slow end to end. *)

(* Don't trust a p99 computed over a handful of requests. *)
let min_slow_count = 64

let retention_reason ctx (job : job) resp =
  match resp.reply with
  | Overloaded -> None (* shed at admission: nothing ran, nothing recorded *)
  | Expired -> Some "expired"
  | Wedged _ -> Some "wedged"
  | Invalid _ -> Some "error"
  | Solved s ->
    if s.st = Sched.Solve.Crashed then Some "crashed"
    else if resp.attempts > 1 then Some "retried"
    else if s.crashes > 0 then Some "crashed"
    else
      let st = Obs.Metrics.hstats ctx.mx.h_solve in
      if
        st.Obs.Metrics.count >= min_slow_count
        && st.Obs.Metrics.p99 > 0.
        && s.solve_ms >= st.Obs.Metrics.p99
      then Some "slow"
      else if ctx.cfg.tail_keep > 0 && job.seq mod ctx.cfg.tail_keep = 0 then
        Some "sampled"
      else None

(* The black box's metadata line: everything needed to reproduce the
   request without the service — status, attempt history, the chaos
   site ids each attempt ran under (chaos_base = seq*8 + k), the
   solver's search stats, and the config the daemon was running. *)
let flight_meta ctx (job : job) resp =
  let module J = Obs.Json in
  let num i = J.Num (float_of_int i) in
  let ms x = J.Num (Float.round (x *. 1000.) /. 1000.) in
  let chaos_sites =
    if Option.is_none ctx.cfg.chaos then []
    else
      [
        ( "chaos_sites",
          J.Arr
            (List.init (max 0 resp.attempts) (fun k ->
                 num ((job.seq * 8) + k + 1))) );
      ]
  in
  let body =
    match resp.reply with
    | Solved s ->
      [
        ( "engine",
          J.Str
            (match s.eng with
            | Sched.Solve.Cp -> "cp"
            | Sched.Solve.Fallback -> "fallback") );
        ("nodes", num s.nodes);
        ("failures", num s.failures);
        ("propagations", num s.propagations);
        ("crashes", num s.crashes);
        ("solve_ms", ms s.solve_ms);
        ("cached", J.Bool s.cached);
      ]
      @ (match s.makespan with Some m -> [ ("makespan", num m) ] | None -> [])
    | Wedged m | Invalid m -> [ ("error", J.Str m) ]
    | Overloaded | Expired -> []
  in
  [
    ("status", J.Str (status_string resp));
    ("code", num (exit_code resp));
    ("seq", num job.seq);
    ("attempts", num resp.attempts);
    ("worker", num resp.worker);
    ("wait_ms", ms resp.wait_ms);
    ("total_ms", ms resp.total_ms);
  ]
  @ chaos_sites @ body
  @ [
      ( "config",
        J.Obj
          [
            ("pool", num ctx.cfg.pool);
            ("queue", num ctx.cfg.queue);
            ("budget_ms", J.Num ctx.cfg.default_budget_ms);
            ("grace_ms", J.Num ctx.cfg.grace_ms);
            ("max_retries", num ctx.cfg.max_retries);
            ("seed", num ctx.cfg.seed);
            ("tail_keep", num ctx.cfg.tail_keep);
            ("flight_buf", num ctx.cfg.flight_buf);
          ] );
    ]

(* Deliver [resp]; true iff this call won the ticket.  The winner —
   and only the winner — bumps the request's [serve.status.*] counter
   and feeds the histograms, so every completed request is counted
   exactly once and [serve.total_ms]'s count equals [completed] in
   {!health} (when the registry is enabled).  The
   winner also settles the flight ring: retain (and link the dump as
   an exemplar on the latency histogram) or drop — so every completed
   request is counted exactly once as kept or dropped.  The winner is
   decided by [claim] and the response published by [fulfil] only
   after every completion side effect has run, so a client returning
   from [await] observes counters (and dump files) that already
   include its own request. *)
let complete ctx job resp =
  let won = claim job.tk in
  if won then begin
    let m = ctx.mx in
    Obs.Metrics.incr (List.assoc (status_string resp) m.c_status);
    Obs.Metrics.observe m.h_queue resp.wait_ms;
    Obs.Metrics.observe m.h_total resp.total_ms;
    Obs.Metrics.observe m.h_attempts (float_of_int resp.attempts);
    (match resp.reply with
    | Solved s ->
      Obs.Metrics.observe m.h_solve s.solve_ms;
      Obs.Metrics.observe m.h_validate s.validate_ms
    | Overloaded | Expired | Wedged _ | Invalid _ -> ());
    (* SLO accounting: a response is [ok] when a schedule (or an
       infeasibility proof) was delivered — exit codes 0/2/3; it met
       its deadline when it was ok and arrived within the request's
       own deadline (no deadline = met by definition). *)
    let ok = exit_code resp <= 3 in
    let deadline_met =
      ok
      &&
      match job.jr.deadline_ms with
      | None -> true
      | Some d -> resp.total_ms <= d
    in
    Obs.Metrics.slo_record m.s_slo ~ok ~deadline_met;
    (match ctx.flight with
    | None -> ()
    | Some fl -> (
      (* worker -1 = never ran: no ring, meta-only dump when retained *)
      let tid = if resp.worker >= 0 then 1000 + resp.worker else -1 in
      match retention_reason ctx job resp with
      | None -> Obs.Flight.drop fl ~tid
      | Some reason ->
        let path =
          Obs.Flight.retain fl ~tid ~reason ~id:resp.r_id
            ~meta:(flight_meta ctx job resp)
        in
        let trace =
          match path with Some p -> Filename.basename p | None -> resp.r_id
        in
        Obs.Metrics.exemplar m.h_total resp.total_ms trace));
    ignore (fulfil job.tk resp)
  end;
  won

(* Backoff before retry producing attempt [k+1]: base * 2^(k-1) plus up
   to one base of jitter — deterministic, keyed on (seed, seq), so
   replays reproduce the exact pause schedule. *)
let backoff_ms cfg rng k =
  let base = cfg.backoff_base_ms in
  (base *. float_of_int (1 lsl (k - 1))) +. Random.State.float rng base

(* Sleep in short slices, stamping the heartbeat each slice so the
   watchdog never mistakes a deliberate backoff for a wedge, and
   checking the switch so a cancelled request stops waiting. *)
let backoff_sleep sw ms =
  let t0 = now () in
  while ms_since t0 < ms && not (Fd.Deadline.cancelled sw) do
    Unix.sleepf 0.005;
    Fd.Deadline.beat sw
  done

let solved_of_outcome ~solve_ms (o : Sched.Solve.outcome) =
  {
    st = o.Sched.Solve.status;
    eng = o.Sched.Solve.engine;
    makespan =
      Option.map (fun s -> s.Sched.Schedule.makespan) o.Sched.Solve.schedule;
    nodes = o.Sched.Solve.stats.Fd.Search.nodes;
    failures = o.Sched.Solve.stats.Fd.Search.failures;
    propagations = o.Sched.Solve.stats.Fd.Search.propagations;
    solve_ms;
    validate_ms = o.Sched.Solve.validate_ms;
    crashes = List.length o.Sched.Solve.crashes;
    cached = o.Sched.Solve.from_cache;
  }

(* Execute one job on pool slot [slot].  Attempts run the CP engine
   with the degradation ladder disabled, so a chaos-crashed attempt is
   visible as [Crashed] and retryable; only once the attempts are spent
   (or the deadline forbids another backoff) does the heuristic rescue
   run — as a zero-budget solve, which [Sched.Solve.run]
   short-circuits straight to the fallback without touching the
   engine. *)
let execute ctx ~slot job =
  let cfg = ctx.cfg in
  let tid = 1000 + slot in
  let wait_ms = ms_since job.t_admit in
  let finish ~attempts reply =
    ignore
      (complete ctx job
         {
           r_id = job.jr.id;
           reply;
           attempts;
           wait_ms;
           total_ms = ms_since job.t_admit;
           worker = slot;
         })
  in
  (* Reset this worker's flight ring so a later dump holds only this
     request's events.  (The previous request's closing span-end —
     emitted after its [finish] — is wiped here, which is fine: its
     retention decision already ran.) *)
  (match ctx.flight with
  | Some fl -> Obs.Flight.start fl ~tid
  | None -> ());
  Fd.Deadline.beat job.sw;
  if Fd.Deadline.expired job.dl then begin
    obs_instant "serve.expire" job.jr.id;
    finish ~attempts:0 Expired
  end
  else
    match (resolve_graph ctx.kernels job.jr.workload, resolve_arch job.jr) with
    | Error msg, _ | _, Error msg -> finish ~attempts:0 (Invalid msg)
    | Ok g, Ok arch ->
      Obs.span ~cat:"serve" ~tid
        ~args:[ ("request_id", Obs.S job.jr.id) ]
        ("request:" ^ job.jr.id)
        (fun () ->
          let t0 = now () in
          let budget_ms =
            Option.value job.jr.budget_ms ~default:cfg.default_budget_ms
          in
          let max_attempts =
            1 + max 0 (Option.value job.jr.retries ~default:cfg.max_retries)
          in
          let rng = Random.State.make [| cfg.seed; job.seq; 0xbac0ff |] in
          let chaos =
            Option.map
              (fun c ->
                Fd.Chaos.with_escape c (fun () ->
                    Fd.Deadline.cancelled job.sw))
              cfg.chaos
          in
          let attempt k =
            Sched.Solve.run
              ~budget:(Fd.Search.time_budget budget_ms)
              ~deadline:job.dl ?chaos
              ~chaos_base:((job.seq * 8) + k)
              ~fallback:false ~tid ~arch
              ?cache:ctx.cache ~metrics:ctx.mx.reg g
          in
          let rec go k o =
            match o.Sched.Solve.status with
            | Sched.Solve.Crashed
              when k < max_attempts && not (Fd.Deadline.cancelled job.sw) ->
              let pause = backoff_ms cfg rng k in
              let fits =
                match Fd.Deadline.remaining_ms job.dl with
                | None -> true
                | Some r -> r > pause +. 10.
              in
              if not fits then (o, k)
              else begin
                Obs.Metrics.incr ctx.mx.c_retries;
                obs_instant "serve.retry" job.jr.id;
                backoff_sleep job.sw pause;
                if Fd.Deadline.cancelled job.sw then (o, k)
                else
                  (* carry the crash history of spent attempts forward,
                     so a rescued request still reports how it got
                     there *)
                  let o' = attempt (k + 1) in
                  go (k + 1)
                    {
                      o' with
                      Sched.Solve.crashes =
                        o.Sched.Solve.crashes @ o'.Sched.Solve.crashes;
                    }
              end
            | _ -> (o, k)
          in
          let o, attempts = go 1 (attempt 1) in
          let o =
            if
              o.Sched.Solve.schedule = None
              && o.Sched.Solve.status <> Sched.Solve.Infeasible
              && not (Fd.Deadline.cancelled job.sw)
            then begin
              let r =
                Sched.Solve.run ~budget:(Fd.Search.time_budget 0.) ~tid ~arch
                  ~metrics:ctx.mx.reg g
              in
              (* The rescue contributes status / engine / schedule; the
                 search stats and crash history stay those of the real
                 attempts — the rescue did no search. *)
              {
                r with
                Sched.Solve.stats = o.Sched.Solve.stats;
                crashes = o.Sched.Solve.crashes @ r.Sched.Solve.crashes;
              }
            end
            else o
          in
          if
            o.Sched.Solve.engine = Sched.Solve.Fallback
            && o.Sched.Solve.schedule <> None
          then Obs.Metrics.incr ctx.mx.c_fallbacks;
          finish ~attempts
            (Solved (solved_of_outcome ~solve_ms:(ms_since t0) o)))

let worker_body ctx ~slot ~alive ~cell =
  if Obs.enabled () then
    Obs.thread_name ~cat:"serve" ~tid:(1000 + slot)
      (Printf.sprintf "pool-worker-%d" slot);
  let rec loop () =
    match Queue.pop ctx.q with
    | None -> ()
    | Some job ->
      Atomic.set cell (Some job);
      (try execute ctx ~slot job
       with _ ->
         (* Isolation of last resort: whatever escaped, the request is
            still answered (as a crash) and the worker keeps serving. *)
         ignore
           (complete ctx job
              {
                r_id = job.jr.id;
                reply =
                  Solved
                    {
                      st = Sched.Solve.Crashed;
                      eng = Sched.Solve.Cp;
                      makespan = None;
                      nodes = 0;
                      failures = 0;
                      propagations = 0;
                      solve_ms = 0.;
                      validate_ms = 0.;
                      crashes = 1;
                      cached = false;
                    };
                attempts = 1;
                wait_ms = ms_since job.t_admit;
                total_ms = ms_since job.t_admit;
                worker = slot;
              }));
      Atomic.set cell None;
      if alive () then loop ()
  in
  loop ()

(* The supervisor loop: expire requests still queued past their
   deadline (no worker burnt), declare no-poll-progress workers wedged
   — answer the request, revive the slot, cancel the switch — and
   sample the queue depth for the trace. *)
let watchdog ctx pool stop =
  while not (Atomic.get stop) do
    Unix.sleepf (ctx.cfg.watchdog_tick_ms /. 1000.);
    let dead = Queue.drain_if ctx.q (fun j -> Fd.Deadline.expired j.dl) in
    List.iter
      (fun j ->
        obs_instant "serve.expire" j.jr.id;
        ignore
          (complete ctx j
             {
               r_id = j.jr.id;
               reply = Expired;
               attempts = 0;
               wait_ms = ms_since j.t_admit;
               total_ms = ms_since j.t_admit;
               worker = -1;
             }))
      dead;
    Array.iteri
      (fun slot cell ->
        match Atomic.get cell with
        | Some j
          when (not (Fd.Deadline.cancelled j.sw))
               && Fd.Deadline.idle_ms j.sw > ctx.cfg.grace_ms ->
          let resp =
            {
              r_id = j.jr.id;
              reply =
                Wedged
                  (Printf.sprintf
                     "worker %d: no solver progress within %.0f ms" slot
                     ctx.cfg.grace_ms);
              attempts = 1;
              wait_ms = ms_since j.t_admit;
              total_ms = ms_since j.t_admit;
              worker = slot;
            }
          in
          (* Claim before cancelling: the cancel releases the wedged
             attempt through its escape predicate, and a released
             worker that answered first would turn the wedge into an
             uncounted [crashed] reply on an unrevived slot.  Losing
             the claim means the worker finished on its own — it is
             not wedged.  Reviving before the cancel retires the old
             worker before it is released, so it never picks up
             another job. *)
          if complete ctx j resp then begin
            obs_instant "serve.wedge" j.jr.id;
            Pool.revive pool slot;
            Fd.Deadline.cancel j.sw
          end
        | _ -> ())
      (Pool.cells pool);
    Obs.Metrics.set_gauge ctx.mx.g_depth (float_of_int (Queue.length ctx.q));
    if Obs.enabled () then
      Obs.counter ~cat:"serve" "serve.queue"
        [ ("depth", Obs.I (Queue.length ctx.q)) ]
  done

(* ------------------------------------------------------------------ *)

let create ?(config = default_config) () =
  (* The caller's registry, or a private one with histograms and SLO
     windows *disabled*: an embedded service with [metrics = None]
     still counts but takes no instrument lock. *)
  let metrics =
    match config.metrics with
    | Some r -> r
    | None -> Obs.Metrics.create ~enabled:false ()
  in
  let flight =
    Option.map
      (fun dir ->
        Obs.Flight.create ~metrics ~capacity:config.flight_buf ~dir ())
      config.flight_dir
  in
  let ctx =
    {
      cfg = config;
      kernels = compile_kernels ();
      q = Queue.create ~capacity:config.queue;
      flight;
      cache =
        (if config.cache_capacity > 0 then
           Some (Cache.create ~metrics ~capacity:config.cache_capacity ())
         else None);
      mx = make_instruments metrics;
    }
  in
  (* The recorder is an ordinary sink: attaching it turns event
     emission on even without --trace, so rings fill for every
     request.  Detached at shutdown. *)
  let fl_h = Option.map (fun fl -> Obs.attach (Obs.Flight.sink fl)) flight in
  let pool = Pool.create ~size:config.pool (worker_body ctx) in
  let wd_stop = Atomic.make false in
  let wd = Domain.spawn (fun () -> watchdog ctx pool wd_stop) in
  {
    ctx;
    pool;
    seq = Atomic.make 0;
    wd_stop;
    wd;
    fl_h;
    shut_m = Mutex.create ();
    shut = false;
  }

let submit ?on_complete t req =
  Obs.Metrics.incr t.ctx.mx.c_submitted;
  let tk =
    {
      tm = Mutex.create ();
      tc = Condition.create ();
      tr = None;
      claimed = false;
      cb = on_complete;
    }
  in
  let sw = Fd.Deadline.switch () in
  let dl =
    Fd.Deadline.with_switch
      (match req.deadline_ms with
      | Some ms -> Fd.Deadline.after_ms ms
      | None -> Fd.Deadline.none)
      sw
  in
  let seq = Atomic.fetch_and_add t.seq 1 in
  let job = { jr = req; seq; dl; sw; t_admit = now (); tk } in
  obs_instant "serve.admit" req.id;
  (match Queue.push t.ctx.q job with
  | `Ok -> ()
  | `Full | `Closed ->
    obs_instant "serve.shed" req.id;
    ignore
      (complete t.ctx job
         {
           r_id = req.id;
           reply = Overloaded;
           attempts = 0;
           wait_ms = 0.;
           total_ms = ms_since job.t_admit;
           worker = -1;
         }));
  tk

let status_count m s = Obs.Metrics.counter_value (List.assoc s m.c_status)

(* A view over the registry: every counter below is an instrument in
   [metrics t], so health, snapshots and Prometheus agree. *)
let health t =
  let m = t.ctx.mx in
  let cs =
    match t.ctx.cache with
    | Some c -> Cache.stats c
    | None -> { Cache.hits = 0; misses = 0; evictions = 0; stores = 0 }
  in
  let fs =
    match t.ctx.flight with
    | Some fl -> Obs.Flight.stats fl
    | None -> { Obs.Flight.kept = 0; dropped = 0; dumped = 0 }
  in
  {
    alive = Pool.alive_count t.pool;
    queue_depth = Queue.length t.ctx.q;
    revived = Pool.revived t.pool;
    zombies = Pool.zombie_count t.pool;
    submitted = Obs.Metrics.counter_value m.c_submitted;
    completed =
      List.fold_left
        (fun n (_, c) -> n + Obs.Metrics.counter_value c)
        0 m.c_status;
    shed = status_count m "rejected_overload";
    expired = status_count m "expired";
    wedged = status_count m "wedged";
    retries = Obs.Metrics.counter_value m.c_retries;
    fallbacks = Obs.Metrics.counter_value m.c_fallbacks;
    invalid = status_count m "error";
    cache_hits = cs.Cache.hits;
    cache_misses = cs.Cache.misses;
    cache_evictions = cs.Cache.evictions;
    flight_kept = fs.Obs.Flight.kept;
    flight_dropped = fs.Obs.Flight.dropped;
    flight_dumped = fs.Obs.Flight.dumped;
    lat_total = Obs.Metrics.hstats m.h_total;
    lat_queue = Obs.Metrics.hstats m.h_queue;
    lat_solve = Obs.Metrics.hstats m.h_solve;
    slo = Obs.Metrics.slo_stats m.s_slo;
  }

let metrics t = t.ctx.mx.reg

(* The daemon-fatal black box: called by the CLI when an exception is
   about to take the whole process down — every live ring plus the
   service's counters, so the crash leaves evidence behind. *)
let flight_dump_all t ~reason =
  match t.ctx.flight with
  | None -> None
  | Some fl ->
    let module J = Obs.Json in
    let num i = J.Num (float_of_int i) in
    let h = health t in
    Obs.Flight.dump_all fl ~reason
      ~meta:
        [
          ("submitted", num h.submitted);
          ("completed", num h.completed);
          ("shed", num h.shed);
          ("expired", num h.expired);
          ("wedged", num h.wedged);
          ("pool", num t.ctx.cfg.pool);
          ("queue", num t.ctx.cfg.queue);
          ("seed", num t.ctx.cfg.seed);
        ]

let shutdown t =
  Mutex.lock t.shut_m;
  let first = not t.shut in
  t.shut <- true;
  Mutex.unlock t.shut_m;
  if first then begin
    Queue.close t.ctx.q;
    (* Workers drain what is already queued; the watchdog stays alive
       until they are done so a wedge during the drain is still
       caught and its request still answered. *)
    Pool.join t.pool;
    Atomic.set t.wd_stop true;
    Domain.join t.wd;
    Pool.join_zombies t.pool;
    Option.iter Obs.detach t.fl_h
  end

let pp_reply ppf = function
  | Solved s ->
    Format.fprintf ppf "solved(%a/%a%t)" Sched.Solve.pp_status s.st
      Sched.Solve.pp_engine s.eng (fun ppf ->
        match s.makespan with
        | Some m -> Format.fprintf ppf ", makespan=%d" m
        | None -> ())
  | Overloaded -> Format.pp_print_string ppf "rejected_overload"
  | Expired -> Format.pp_print_string ppf "expired"
  | Wedged m -> Format.fprintf ppf "wedged: %s" m
  | Invalid m -> Format.fprintf ppf "invalid: %s" m

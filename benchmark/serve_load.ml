(* serve-mix and serve-repeat: one process drives an embedded
   [Serve.Service] from its main thread (no generator threads).  An
   open-loop phase sends Poisson arrivals and times each request from
   the moment it was due to the moment its completion callback fired;
   a closed-loop phase then keeps 2 x pool requests outstanding and
   counts completions per second (the service's capacity). *)

open Eit_dsl
module Service = Serve.Service

let arch = Eit.Arch.default
let pool = 2

type problem = {
  kind : string;  (* the request class metrics are grouped by *)
  base : string;  (* the kernel whose graph it is *)
  workload : Service.workload;
  slots : int option;
  bound : int;  (* [Sched.Bounds] lower bound of the merged graph *)
}

type answer = Optimum of int | Infeasible | Unproven

(* Node ids renamed by a seeded permutation, data nodes first, then
   operations: the same problem as far as the cache key is concerned,
   a different numbering as far as the search order is concerned. *)
let renumber rng g =
  let b = Ir.builder () in
  let ids = Array.make (Ir.size g) (-1) in
  List.iter
    (fun d ->
      let n = Ir.node g d in
      let k = if n.Ir.cat = Ir.Vector_data then `Vector else `Scalar in
      ids.(d) <- Ir.add_data b ~label:n.Ir.label ?value:n.Ir.value k)
    (Compile.shuffle rng (Ir.data_nodes g));
  List.iter
    (fun o ->
      let n = Ir.node g o in
      let result = match Ir.succs g o with [ d ] -> ids.(d) | _ -> invalid_arg "renumber" in
      ids.(o) <-
        Ir.add_op b ~label:n.Ir.label (Option.get n.Ir.op)
          ~args:(List.map (fun a -> ids.(a)) (Ir.preds g o))
          ~result)
    (Compile.shuffle rng (Ir.op_nodes g));
  Ir.freeze b

let bound_of raw ?slots () =
  let arch = match slots with Some n -> Eit.Arch.with_slots arch n | None -> arch in
  (Sched.Bounds.compute (Pipeline.merge raw) arch).Sched.Bounds.makespan

type spec = {
  rate : float;  (* open-loop arrivals per second *)
  budget_ms : float;
  deadline_ms : float;
  cache : int;
  standalone : string list;  (* kernels proven standalone during set-up *)
  mix : Random.State.t -> problem list * (Random.State.t -> problem);
      (* built from the seed during set-up: one problem per class for
         the warm-up pass, and the per-request draw *)
}

let named kind raw =
  { kind; base = kind; workload = Service.Kernel kind; slots = None; bound = bound_of raw () }

let xml kind raw =
  { kind; base = kind; workload = Service.Xml_text (Xml.to_string raw); slots = None;
    bound = bound_of raw () }

let pick rng a = a.(Random.State.int rng (Array.length a))

(* qrd, arf and matmul by name, FIR-8 as an inline XML graph, uniformly;
   a 40 ms budget keeps MATMUL (never proven that fast) on the anytime
   and fallback path.  The cache is off. *)
let mix_spec =
  {
    rate = 40.;
    budget_ms = 40.;
    deadline_ms = 2_000.;
    cache = 0;
    standalone = [ "qrd"; "arf"; "matmul"; "fir" ];
    mix =
      (fun rng ->
        let raw k = Pipeline.trace { kind = k; seed = None } in
        let fir = Pipeline.trace { kind = "fir"; seed = Some (Random.State.bits rng) } in
        let all =
          [| named "qrd" (raw "qrd"); named "arf" (raw "arf"); named "matmul" (raw "matmul");
             xml "fir" fir |]
        in
        (Array.to_list all, fun rng -> pick rng all));
  }

(* 90% from a hot set of six problems, the XML ones renumbered (a pool
   of 16 numberings each; MATMUL goes by name: its renumbered forms do
   not prove within the budget, so they would never reach the cache);
   10% cold FIR-8 graphs with a memory size of 10-64 slots, which miss,
   store and evict.  Cold QRDs were tried first: a QRD miss holds a
   worker for 25-60 ms, the hits queued behind it, and every latency
   figure then followed the host's load (30-90% apart across seeds). *)
let repeat_spec =
  let hot_xml = [ "qrd"; "arf"; "fir"; "detect"; "corr" ] in
  {
    rate = 100.;
    budget_ms = 2_000.;
    deadline_ms = 5_000.;
    cache = 32;
    standalone = "matmul" :: hot_xml;
    mix =
      (fun rng ->
        let numberings kind raw = Array.init 16 (fun _ -> xml kind (renumber rng raw)) in
        let hot =
          Array.of_list
            ([| named "matmul" (Pipeline.trace { kind = "matmul"; seed = None }) |]
            :: List.map
                 (fun kind ->
                   numberings kind (Pipeline.trace { kind; seed = Some (Random.State.bits rng) }))
                 hot_xml)
        in
        let fir = Pipeline.trace { kind = "fir"; seed = Some (Random.State.bits rng) } in
        let cold = numberings "cold" fir in
        (* memory sizes in a seeded cyclic order: a size comes back only
           after all 54 others, long after LRU dropped it, so every cold
           request misses *)
        let sizes =
          Array.of_list
            (List.map
               (fun slots -> (slots, bound_of fir ~slots ()))
               (Compile.shuffle rng (List.init 55 (fun i -> 10 + i))))
        in
        let next = ref 0 in
        ( Array.to_list (Array.map (fun a -> a.(0)) hot),
          fun rng ->
            if Random.State.int rng 10 > 0 then pick rng (pick rng hot)
            else begin
              let slots, bound = sizes.(!next mod Array.length sizes) in
              incr next;
              { (pick rng cold) with base = "fir"; slots = Some slots; bound }
            end ));
  }

let request spec i p =
  Service.request ?slots:p.slots ~budget_ms:spec.budget_ms ~deadline_ms:spec.deadline_ms
    ~id:(Printf.sprintf "r%d" i) p.workload

(* Poisson arrivals over [seconds]: offsets from the phase start. *)
let arrivals rng ~rate ~seconds =
  let rec go t acc =
    let t = t -. (log (1. -. Random.State.float rng 1.) /. rate) in
    if t >= seconds then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0. []

type sent = {
  p : problem;
  resp : Service.response;
  latency_ms : float option;
}

let open_loop svc spec plan =
  let n = Array.length plan in
  let done_at = Array.make n 0. and lag = Array.make n 0. in
  let completed = Atomic.make 0 in
  let t0 = Unix.gettimeofday () +. 0.01 in
  let tickets = ref [] in
  Array.iteri
    (fun i (off, p) ->
      let due = t0 +. off in
      let d = due -. Unix.gettimeofday () in
      if d > 0. then Unix.sleepf d;
      lag.(i) <- (Unix.gettimeofday () -. due) *. 1000.;
      tickets :=
        Service.submit svc (request spec i p) ~on_complete:(fun _ ->
            done_at.(i) <- Unix.gettimeofday ();
            Atomic.incr completed)
        :: !tickets)
    plan;
  let resps = Array.of_list (List.rev_map Service.await !tickets) in
  (* [await] can return before the callback ran *)
  while Atomic.get completed < n do Unix.sleepf 0.0005 done;
  let sent =
    Array.to_list
      (Array.mapi
         (fun i (off, p) ->
           { p; resp = resps.(i); latency_ms = Some ((done_at.(i) -. (t0 +. off)) *. 1000.) })
         plan)
  in
  (sent, Array.to_list lag)

(* The capacity counts completions only after the first [warm] seconds:
   on serve-repeat the rate climbs from about half its level for the
   first 1.5 s after the open-loop phase, a transient a short phase
   would otherwise mix in. *)
let closed_loop svc spec ~seconds next =
  let q = Queue.create () and out = ref [] and i = ref 0 in
  let warm = Float.min 2. (seconds /. 2.) in
  let counted = ref 0 and last = ref 0. in
  let submit () =
    let p = next () in
    incr i;
    Queue.push (p, Service.submit svc (request spec (100_000 + !i) p)) q
  in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 2 * pool do submit () done;
  while not (Queue.is_empty q) do
    let p, tk = Queue.pop q in
    out := { p; resp = Service.await tk; latency_ms = None } :: !out;
    let t = Unix.gettimeofday () -. t0 in
    if t < seconds then begin
      if t >= warm then begin
        incr counted;
        last := t
      end;
      submit ()
    end
  done;
  (!out, float_of_int !counted /. Float.max 1e-3 (!last -. warm))

type verdict = Good | Failed of string | Wrong of string

let judge oracle s =
  let known = Hashtbl.find_opt oracle (s.p.base, s.p.slots) in
  match s.resp.Service.reply with
  | Service.Solved r -> (
    match (r.Service.st, r.Service.makespan, known) with
    | _, Some mk, _ when mk < s.p.bound ->
      Wrong (Printf.sprintf "makespan %d below lower bound %d" mk s.p.bound)
    | Fd.Search.Optimal, Some mk, Some (Optimum o) when mk <> o ->
      Wrong (Printf.sprintf "optimal reply %d, standalone optimum %d" mk o)
    | Fd.Search.Optimal, Some _, Some Infeasible ->
      Wrong "optimal reply, standalone proved infeasible"
    | (Fd.Search.Optimal | Fd.Search.Feasible_timeout), Some _, _ -> Good
    | Fd.Search.Infeasible, _, Some (Optimum _) ->
      Wrong "infeasible reply, standalone found a schedule"
    | Fd.Search.Infeasible, _, _ -> Good
    | _ -> Failed (Service.status_string s.resp))
  | Service.Invalid m -> Wrong ("rejected as invalid: " ^ m)
  | Service.Overloaded | Service.Expired | Service.Wedged _ ->
    Failed (Service.status_string s.resp)

let run spec ~seconds ~setups ~tr ~seed =
  let samples = tr.Span.samples in
  let plain = Span.create ~on:false samples in
  let wrong = ref 0 in
  let fail m =
    incr wrong;
    Printf.eprintf "WRONG answer: %s\n%!" m
  in
  let oracle = Hashtbl.create 16 in
  let open_s = seconds *. 0.6 in
  (* set-up: standalone optima for the oracle (before the service's
     domains exist, so they are also the standalone reference times),
     then the service, the inputs, and one untimed request per problem
     class *)
  let setup () =
    List.iteri
      (fun rid kind ->
        let input = { Pipeline.kind; seed = None } in
        let o, _ =
          Compile.measure ~tr ~plain ~samples ~bound:(bound_of (Pipeline.trace input) ()) ~fail
            ~rid input
        in
        Hashtbl.replace oracle (kind, None)
          (match (o.Pipeline.solved.Pipeline.status, Pipeline.makespan o) with
          | Fd.Search.Optimal, Some m -> Optimum m
          | _ -> Unproven))
      spec.standalone;
    let config =
      {
        Service.default_config with
        pool;
        cache_capacity = spec.cache;
        (* enabled as [eitc serve] enables it *)
        metrics = Some (Obs.Metrics.create ());
      }
    in
    let svc = Service.create ~config () in
    let rng = Random.State.make [| seed; 0x5e7e |] in
    let warm, draw = spec.mix rng in
    let plan =
      Array.map (fun off -> (off, draw rng)) (arrivals rng ~rate:spec.rate ~seconds:open_s)
    in
    let warmed =
      List.mapi
        (fun i p ->
          { p; resp = Service.await (Service.submit svc (request spec (-1 - i) p));
            latency_ms = None })
        warm
    in
    (svc, rng, draw, plan, warmed)
  in
  let setup_s, (svc, rng, draw, plan, warmed) =
    Run.setups setups ~teardown:(fun (svc, _, _, _, _) -> Service.shutdown svc) setup
  in
  let before = Service.health svc in
  let timed, lags = open_loop svc spec plan in
  let saturated, throughput =
    closed_loop svc spec ~seconds:(seconds -. open_s) (fun () -> draw rng)
  in
  let after = Service.health svc in
  Service.shutdown svc;
  let sent = timed @ saturated in
  (* standalone answers for the memory sizes the cold requests drew *)
  List.iter
    (fun s ->
      let key = (s.p.base, s.p.slots) in
      match s.p.slots with
      | Some n when not (Hashtbl.mem oracle key) ->
        let o =
          Pipeline.direct ~arch:(Eit.Arch.with_slots arch n)
            ~budget:(Pipeline.budget s.p.base)
            (Pipeline.merge (Pipeline.trace { kind = s.p.base; seed = None }))
        in
        Hashtbl.replace oracle key
          (match (o.Pipeline.status, o.Pipeline.schedule) with
          | Fd.Search.Optimal, Some sch -> Optimum sch.Sched.Schedule.makespan
          | Fd.Search.Infeasible, _ -> Infeasible
          | _ -> Unproven)
      | _ -> ())
    sent;
  List.iter
    (fun s ->
      match judge oracle s with
      | Wrong why ->
        fail (Printf.sprintf "warm-up request %s (%s): %s" s.resp.Service.r_id s.p.kind why)
      | Good | Failed _ -> ())
    warmed;
  let reqs =
    List.map
      (fun s ->
        let failed =
          match judge oracle s with
          | Good -> false
          | Failed why ->
            Printf.eprintf "FAILED request %s (%s): %s\n%!" s.resp.Service.r_id s.p.kind why;
            true
          | Wrong why ->
            fail (Printf.sprintf "request %s (%s): %s" s.resp.Service.r_id s.p.kind why);
            true
        in
        let solved =
          match s.resp.Service.reply with Service.Solved r -> Some r | _ -> None
        in
        {
          Run.kind = s.p.kind;
          (* a failed request missed every latency limit *)
          latency_ms =
            (if failed then Option.map (fun _ -> spec.deadline_ms) s.latency_ms
             else s.latency_ms);
          makespan = Option.bind solved (fun r -> r.Service.makespan);
          optimal =
            (match solved with Some r -> r.Service.st = Fd.Search.Optimal | None -> false);
          failed;
        })
      sent
  in
  (* per-layer numbers, from the open-loop phase's own responses *)
  let put name v = Quant.add samples name v in
  let solved =
    List.filter_map
      (fun s ->
        match s.resp.Service.reply with Service.Solved r -> Some (s, r) | _ -> None)
      timed
  in
  List.iter (fun (s, r) -> put ("serve.solve_ms." ^ s.p.kind) r.Service.solve_ms) solved;
  let waits = List.map (fun s -> s.resp.Service.wait_ms) timed in
  let lat = List.filter_map (fun s -> s.latency_ms) timed in
  put "serve.queue_wait_ms.p50" (Quant.median waits);
  put "serve.queue_wait_ms.p99" (Quant.rank 0.99 waits);
  put "serve.total_p99_ms" (Quant.rank 0.99 lat);
  put "serve.validate_ms.p50"
    (Quant.median (List.map (fun (_, r) -> r.Service.validate_ms) solved));
  (* [solve_ms] already covers validation, parsing and any fallback *)
  put "serve.residual_ms.p50"
    (Quant.median
       (List.map
          (fun (s, r) -> s.resp.Service.total_ms -. s.resp.Service.wait_ms -. r.Service.solve_ms)
          solved));
  let n = float_of_int (max 1 (List.length timed)) in
  put "serve.attempts_mean"
    (Quant.mean (List.map (fun s -> float_of_int s.resp.Service.attempts) timed));
  put "serve.fallback_frac"
    (float_of_int
       (List.length (List.filter (fun (_, r) -> r.Service.eng = Sched.Solve.Fallback) solved))
    /. n);
  let delta name f = put name (float_of_int (f after - f before)) in
  delta "serve.retries" (fun h -> h.Service.retries);
  delta "serve.shed" (fun h -> h.Service.shed);
  delta "serve.expired" (fun h -> h.Service.expired);
  delta "serve.wedged" (fun h -> h.Service.wedged);
  delta "serve.revived" (fun h -> h.Service.revived);
  delta "cache.evictions" (fun h -> h.Service.cache_evictions);
  let hits = after.Service.cache_hits - before.Service.cache_hits
  and misses = after.Service.cache_misses - before.Service.cache_misses in
  put "cache.hit_rate" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  let lat_where f =
    List.filter_map (fun (s, r) -> if f r then s.latency_ms else None) solved
  in
  put "cache.hit_latency_p50_ms" (Quant.median (lat_where (fun r -> r.Service.cached)));
  put "cache.miss_latency_p50_ms"
    (Quant.median (lat_where (fun r -> not r.Service.cached)));
  put "gen.lag_p99_ms" (Quant.rank 0.99 lags);
  put "gen.lag_max_ms" (List.fold_left Float.max 0. lags);
  (* the live histogram's p99 against the exact p99 of every response it
     saw after the last set-up *)
  let exact =
    Quant.rank 0.99 (List.map (fun s -> s.resp.Service.total_ms) (warmed @ sent))
  in
  let hist = (Service.health svc).Service.lat_total.Obs.Metrics.p99 in
  put "obs.hist_p99_rel_err" (if exact > 0. then Float.abs (hist -. exact) /. exact else 0.);
  (* the service-side layers the benchmark can time from outside, on
     the same inputs *)
  if tr.Span.on then
    List.iteri
      (fun i s ->
        if i < 200 then begin
          (match s.p.workload with
          | Service.Xml_text text -> (
            match Span.record tr ~kind:"p50" "eit_dsl.xml_parse" (fun () -> Xml.parse text) with
            | Ok g ->
              let ir = Pipeline.merge g in
              ignore (Span.record tr ~kind:"p50" "cache.key" (fun () -> Cache.Key.canonicalize ir))
            | Error _ -> ())
          | _ -> ());
          ignore (Span.record tr ~kind:"p50" "serve.encode" (fun () -> Serve.Wire.response_line s.resp))
        end)
      timed;
  {
    Run.setup_s;
    reqs;
    throughput_rps = throughput;
    wrong = !wrong;
    (* the generator kept to its schedule: its p99 lag stays under half
       the mean gap between arrivals *)
    valid = Quant.rank 0.99 lags <= 500. /. spec.rate;
    samples;
  }

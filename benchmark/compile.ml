(* compile-seq: one caller in a closed loop, rounds of the kernels in a
   seeded order until the run's time is up.  The measured loop goes
   through no domain, queue, cache or service. *)

let arch = Eit.Arch.default

let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l
  |> List.sort compare |> List.map snd

(* One compile request, untraced; in a traced run, the same input also
   through the traced replay, the two in alternating order so neither
   always runs on warm caches.  Per-layer samples land in [samples];
   every oracle violation goes to [fail]. *)
let measure ~tr ~plain ~samples ~bound ~fail ~rid (input : Pipeline.input) =
  let kind = input.kind in
  let budget = Pipeline.budget kind in
  let judge o =
    match Pipeline.verdict ~bound o with
    | Ok () -> true
    | Error m ->
      fail m;
      false
  in
  let untraced () = Pipeline.request plain ~rid ~solve:(Pipeline.direct ~arch ~budget) input in
  let traced () = Pipeline.request tr ~rid ~solve:(Pipeline.replay tr samples ~kind ~arch ~budget) input in
  let o, t =
    if not tr.Span.on then (untraced (), None)
    else if rid land 1 = 0 then
      let o = untraced () in
      (o, Some (traced ()))
    else
      let t = traced () in
      (untraced (), Some t)
  in
  let ok = judge o in
  let add name v = Quant.add samples (name ^ "." ^ kind) v in
  let count name v = add name (float_of_int v) in
  add "sched.solve_ms" o.solve_ms;
  Option.iter (count "sched.makespan_cycles") (Pipeline.makespan o);
  Option.iter
    (fun (t : Pipeline.outcome) ->
      ignore (judge t);
      Quant.add samples "request_wall.untraced" o.wall_ms;
      Quant.add samples "request_wall.traced" t.wall_ms;
      count "fd.nodes" o.solved.nodes;
      count "fd.propagations" o.solved.propagations;
      count "fd.failures" o.solved.failures;
      (* the replay must be the same search, or it measures another
         program *)
      if (t.solved.nodes, t.solved.propagations) <> (o.solved.nodes, o.solved.propagations) then
        fail
          (Printf.sprintf "%s: replay explored %d nodes / %d propagations, Solve.run %d / %d" kind
             t.solved.nodes t.solved.propagations o.solved.nodes o.solved.propagations);
      Pipeline.analyse tr samples ~arch t)
    t;
  (o, ok)

(* Traced runs end with a few rounds of the paper kernels solved by a
   2-domain portfolio ([Solve.run ~parallel:2]), held to the same
   oracle.  They come after the measured loop, so their domains cannot
   disturb it, and they are no workload of their own: on a 2-vCPU
   shared host a portfolio's time follows how the host schedules both
   vCPUs (medians 40% apart between sets of runs of the same code). *)
let portfolio_pass ~plain ~samples ~bounds ~fail ~rounds next_input =
  let crashes = ref 0 in
  for _ = 1 to rounds do
    List.iter
      (fun kind ->
        let o =
          Pipeline.request plain ~rid:(-1)
            ~solve:(Pipeline.direct ~parallel:2 ~arch ~budget:(Pipeline.budget kind))
            (next_input kind)
        in
        (match Pipeline.verdict ~bound:(Hashtbl.find bounds kind) o with
        | Ok () -> ()
        | Error m -> fail ("portfolio " ^ m));
        Quant.add samples ("fd.portfolio_ms." ^ kind) o.solve_ms;
        Quant.add samples ("fd.portfolio_nodes." ^ kind) (float_of_int o.solved.nodes);
        crashes := !crashes + o.solved.crashes)
      [ "qrd"; "arf"; "matmul" ]
  done;
  !crashes

(* Each request's latency is put at reference speed by the mean of the
   host-speed probes just before and just after it, so that a slow
   stretch of the host moves both. *)
let run ~kernels ~seconds ~setups ~tr ~seed ~portfolio_rounds =
  let samples = tr.Span.samples in
  let plain = Span.create ~on:false samples in
  let rng = Random.State.make [| seed; 0xc0de |] in
  let wrong = ref 0 in
  let next_input kind = { Pipeline.kind; seed = Some (Random.State.bits rng) } in
  let bounds = Hashtbl.create 8 in
  let fail m =
    incr wrong;
    Printf.eprintf "WRONG answer: %s\n%!" m
  in
  (* set-up: the oracle's lower bounds, then one untimed request per
     kernel *)
  let setup () =
    List.iter
      (fun kind ->
        let ir = Pipeline.merge (Pipeline.trace { kind; seed = None }) in
        Hashtbl.replace bounds kind (Sched.Bounds.compute ir arch).Sched.Bounds.makespan)
      kernels;
    let warm = Span.create ~on:false (Quant.table ()) in
    List.iter
      (fun kind ->
        ignore
          (measure ~tr:warm ~plain ~samples:(Quant.table ()) ~bound:(Hashtbl.find bounds kind)
             ~fail ~rid:(-1) (next_input kind)))
      kernels
  in
  let setup_s, () = Run.setups setups setup in
  let reqs = ref [] and rid = ref 0 and crashes = ref 0 and busy_ms = ref 0. in
  let before = ref (Hostspeed.probe ()) in
  let t0 = Unix.gettimeofday () in
  while !reqs = [] || Unix.gettimeofday () -. t0 < seconds do
    List.iter
      (fun kind ->
        incr rid;
        let o, ok =
          measure ~tr ~plain ~samples ~bound:(Hashtbl.find bounds kind) ~fail ~rid:!rid
            (next_input kind)
        in
        let after = Hostspeed.probe () in
        let latency = Hostspeed.normalize ~ref_ms:((!before +. after) /. 2.) o.wall_ms in
        before := after;
        busy_ms := !busy_ms +. latency;
        crashes := !crashes + o.solved.crashes;
        reqs :=
          {
            Run.kind;
            latency_ms = Some latency;
            makespan = Pipeline.makespan o;
            optimal = o.solved.status = Fd.Search.Optimal;
            failed = not ok;
          }
          :: !reqs)
      (shuffle rng kernels)
  done;
  if tr.Span.on then
    crashes :=
      !crashes + portfolio_pass ~plain ~samples ~bounds ~fail ~rounds:portfolio_rounds next_input;
  Quant.add samples "fd.crashes" (float_of_int !crashes);
  {
    Run.setup_s;
    reqs = !reqs;
    (* one caller: requests per second of its busy time, at reference
       speed, leaving out the probes between requests *)
    throughput_rps = float_of_int (List.length !reqs) /. (!busy_ms /. 1000.);
    wrong = !wrong;
    valid = true;
    samples;
  }

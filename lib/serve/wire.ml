module J = Obs.Json

let ( let* ) = Result.bind

let get_str name j =
  match J.member name j with
  | None | Some J.Null -> Ok None
  | Some (J.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "%S must be a string" name)

let get_num name j =
  match J.member name j with
  | None | Some J.Null -> Ok None
  | Some (J.Num f) -> Ok (Some f)
  | Some _ -> Error (Printf.sprintf "%S must be a number" name)

let request_of_json ?default_id j =
  match j with
  | J.Obj _ ->
    let* id = get_str "id" j in
    let* kernel = get_str "kernel" j in
    let* xml = get_str "xml" j in
    let* xml_file = get_str "xml_file" j in
    let* workload =
      match (kernel, xml, xml_file) with
      | Some k, None, None -> Ok (Service.Kernel k)
      | None, Some x, None -> Ok (Service.Xml_text x)
      | None, None, Some p -> Ok (Service.Xml_file p)
      | None, None, None ->
        Error "missing workload: provide one of \"kernel\", \"xml\", \"xml_file\""
      | _ -> Error "exactly one of \"kernel\", \"xml\", \"xml_file\" allowed"
    in
    let* slots = get_num "slots" j in
    let* preset = get_str "arch" j in
    let* budget_ms = get_num "budget_ms" j in
    let* deadline_ms = get_num "deadline_ms" j in
    let* retries = get_num "retries" j in
    let id =
      match (id, default_id) with
      | Some i, _ -> i
      | None, Some d -> d
      | None, None -> "?"
    in
    Ok
      {
        Service.id;
        workload;
        slots = Option.map int_of_float slots;
        preset;
        budget_ms;
        deadline_ms;
        retries = Option.map int_of_float retries;
      }
  | _ -> Error "request must be a JSON object"

(* A control line is distinguished by ["stats": true]; everything else
   is a solve request, so old clients keep working unchanged. *)
type parsed = Request of Service.request | Stats of string

let parse_line ?default_id line =
  match J.parse line with
  | Error e -> Error ("json: " ^ e)
  | Ok j -> (
    match J.member "stats" j with
    | Some (J.Bool true) ->
      let* id = get_str "id" j in
      let id =
        match (id, default_id) with
        | Some i, _ -> i
        | None, Some d -> d
        | None, None -> "stats"
      in
      Ok (Stats id)
    | _ -> Result.map (fun r -> Request r) (request_of_json ?default_id j))

let num i = J.Num (float_of_int i)
let ms x = J.Num (Float.round (x *. 1000.) /. 1000.)

let response_json (r : Service.response) =
  let head =
    [
      ("id", J.Str r.Service.r_id);
      ("status", J.Str (Service.status_string r));
      ("code", num (Service.exit_code r));
    ]
  in
  let body =
    match r.Service.reply with
    | Service.Solved s ->
      [
        ( "engine",
          J.Str
            (match s.Service.eng with
            | Sched.Solve.Cp -> "cp"
            | Sched.Solve.Fallback -> "fallback") );
      ]
      @ (match s.Service.makespan with
        | Some m -> [ ("makespan", num m) ]
        | None -> [])
      @ [
          ("cached", J.Bool s.Service.cached);
          ("nodes", num s.Service.nodes);
          ("failures", num s.Service.failures);
          ("propagations", num s.Service.propagations);
          ("crashes", num s.Service.crashes);
          ("solve_ms", ms s.Service.solve_ms);
          ("validate_ms", ms s.Service.validate_ms);
        ]
    | Service.Wedged m | Service.Invalid m -> [ ("error", J.Str m) ]
    | Service.Overloaded | Service.Expired -> []
  in
  let tail =
    [
      ("attempts", num r.Service.attempts);
      ("retries", num (max 0 (r.Service.attempts - 1)));
      ("wait_ms", ms r.Service.wait_ms);
      ("total_ms", ms r.Service.total_ms);
      ("worker", num r.Service.worker);
    ]
  in
  J.Obj (head @ body @ tail)

let response_line r = J.to_string (response_json r)

let hstats_json (h : Obs.Metrics.hstats) =
  J.Obj
    [
      ("count", num h.Obs.Metrics.count);
      ("mean", ms h.Obs.Metrics.mean);
      ("min", ms h.Obs.Metrics.vmin);
      ("max", ms h.Obs.Metrics.vmax);
      ("p50", ms h.Obs.Metrics.p50);
      ("p90", ms h.Obs.Metrics.p90);
      ("p95", ms h.Obs.Metrics.p95);
      ("p99", ms h.Obs.Metrics.p99);
      ("p999", ms h.Obs.Metrics.p999);
    ]

let slo_json (s : Obs.Metrics.slo_stats) =
  J.Obj
    [
      ("window", num s.Obs.Metrics.window);
      ("seen", num s.Obs.Metrics.seen);
      ("total", num s.Obs.Metrics.total);
      ("ok", num s.Obs.Metrics.ok);
      ("deadline_met", num s.Obs.Metrics.met);
      ("error_rate", J.Num s.Obs.Metrics.error_rate);
      ("deadline_hit_rate", J.Num s.Obs.Metrics.deadline_hit_rate);
    ]

let stats_json ~id (h : Service.health) =
  J.Obj
    [
      ("id", J.Str id);
      ("stats", J.Bool true);
      ("alive", num h.Service.alive);
      ("queue_depth", num h.Service.queue_depth);
      ("revived", num h.Service.revived);
      ("zombies", num h.Service.zombies);
      ("submitted", num h.Service.submitted);
      ("completed", num h.Service.completed);
      ("shed", num h.Service.shed);
      ("expired", num h.Service.expired);
      ("wedged", num h.Service.wedged);
      ("retries", num h.Service.retries);
      ("fallbacks", num h.Service.fallbacks);
      ("invalid", num h.Service.invalid);
      ("cache_hits", num h.Service.cache_hits);
      ("cache_misses", num h.Service.cache_misses);
      ("cache_evictions", num h.Service.cache_evictions);
      ("flight_kept", num h.Service.flight_kept);
      ("flight_dropped", num h.Service.flight_dropped);
      ("flight_dumped", num h.Service.flight_dumped);
      ("total_ms", hstats_json h.Service.lat_total);
      ("queue_wait_ms", hstats_json h.Service.lat_queue);
      ("solve_ms", hstats_json h.Service.lat_solve);
      ("slo", slo_json h.Service.slo);
    ]

let stats_line ~id h = J.to_string (stats_json ~id h)

let log_line ?ts r =
  let ts = match ts with Some t -> t | None -> Unix.gettimeofday () in
  match response_json r with
  | J.Obj fields -> J.to_string (J.Obj (("ts_unix", J.Num ts) :: fields))
  | j -> J.to_string j

let error_line ~id msg =
  J.to_string
    (J.Obj
       [
         ("id", J.Str id);
         ("status", J.Str "error");
         ("code", num 7);
         ("error", J.Str msg);
       ])

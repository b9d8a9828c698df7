(** Line-delimited JSON wire format for [eitc serve].

    One request object per input line, one response object per output
    line, always in admission order of completion (not submission).

    Request fields: ["id"] (string; defaults to the line number),
    exactly one workload key — ["kernel"] (built-in name), ["xml"]
    (inline exported graph) or ["xml_file"] (path) — and optional
    ["slots"], ["arch"] (preset name), ["budget_ms"], ["deadline_ms"],
    ["retries"].  Every solve is sequential; other members (an old
    client's ["parallel"], say) are ignored.

    Response fields: ["id"], ["status"] (see
    {!Service.status_string}), ["code"] (see {!Service.exit_code});
    for solved requests ["engine"], ["makespan"] (when a schedule
    exists), ["nodes"], ["failures"], ["propagations"], ["crashes"],
    ["solve_ms"], ["validate_ms"]; for wedged / invalid ones
    ["error"]; always ["attempts"], ["retries"], ["wait_ms"],
    ["total_ms"], ["worker"].

    A control line [{"stats": true}] (optional ["id"]) is answered in
    place with one {!stats_line} — live health plus latency quantiles
    — without occupying a worker.

    A line that fails to parse is answered with {!error_line} — the
    daemon never exits on bad input. *)

val request_of_json :
  ?default_id:string -> Obs.Json.t -> (Service.request, string) result

type parsed =
  | Request of Service.request
  | Stats of string  (** the control line's id *)

val parse_line : ?default_id:string -> string -> (parsed, string) result
(** One input line: a {!Request} ({!request_of_json} on the parsed
    object), or the [stats] control form. *)

val response_json : Service.response -> Obs.Json.t
val response_line : Service.response -> string

val stats_line : id:string -> Service.health -> string
(** One JSON line: every {!Service.health} counter, the
    [total_ms] / [queue_wait_ms] / [solve_ms] latency distributions
    (count, mean, min, max, p50..p999) and the rolling [slo] object —
    the wire answer to a [{"stats": true}] control line. *)

val log_line : ?ts:float -> Service.response -> string
(** The structured per-request log record: {!response_json} prefixed
    with a ["ts_unix"] wall-clock field ([ts] defaults to now). *)

val error_line : id:string -> string -> string
(** A synthetic ["error"]/code-7 response for input that never became
    a request (unparseable JSON, missing workload). *)

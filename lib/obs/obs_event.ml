(* The event vocabulary shared by the emit side (Obs), the flight
   recorder (Flight) and the sinks.

   Lives in its own unit so [Flight] can hold raw events in its ring
   buffers — deferring all serialization to dump time — without a
   dependency cycle through the Obs module, which re-exports Flight.
   [Obs] re-exports these types with manifest equations, so
   [Obs.event] and [Obs_event.event] are the same type. *)

type value = I of int | F of float | S of string | B of bool

type ph =
  | Begin
  | End
  | Instant
  | Counter
  | Complete of float  (* duration in microseconds *)
  | Meta  (* track metadata (Chrome "M"): thread/process names *)

type event = {
  name : string;
  cat : string;
  ts_us : float;
  tid : int;
  ph : ph;
  args : (string * value) list;
}

let ph_str = function
  | Begin -> "B"
  | End -> "E"
  | Instant -> "i"
  | Counter -> "C"
  | Complete _ -> "X"
  | Meta -> "M"

let value_json = function
  | I i -> string_of_int i
  | F f -> Obs_json.float_str f
  | S s -> "\"" ^ Obs_json.escape s ^ "\""
  | B b -> string_of_bool b

let args_json args =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> "\"" ^ Obs_json.escape k ^ "\":" ^ value_json v)
         args)
  ^ "}"

(* One event as one JSON line (no trailing newline) — the shape the
   Jsonl sink streams and flight dumps replay.  The decoder derives the
   pid from [cat], so these events need none. *)
let jsonl_line ev =
  let dur =
    match ev.ph with
    | Complete d -> Printf.sprintf ",\"dur\":%s" (Obs_json.float_str d)
    | _ -> ""
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%s,\"tid\":%d%s,\"args\":%s}"
    (Obs_json.escape ev.name) (Obs_json.escape ev.cat) (ph_str ev.ph)
    (Obs_json.float_str ev.ts_us) ev.tid dur (args_json ev.args)

(* Trace processes: pid 1 is the solver stack (wall-clock
   timestamps), pid 2 the simulated machine (cycle timestamps), so the
   scales never share a track.  An event without a pid belongs to the
   one its category names. *)
let pid_of_cat = function "machine" -> 2 | _ -> 1

(* Per-propagator profile rows travel as instants of this category. *)
let cat_propagator = "propagator"

(* The one decoder for recorded events: the inverse of {!jsonl_line}
   and of the Chrome sink's records.  Returns the event with its pid
   (the [pid] member, else derived from [cat]), or what is wrong with
   it in the trace checker's words.  Metadata records carry no
   timestamp.  JSON numbers carry no int/float tag, so [I] args come
   back as [F]; null/array/object args are dropped. *)
let event_of_json j =
  let module J = Obs_json in
  let ( let* ) = Result.bind in
  let str k =
    match J.member k j with
    | Some (J.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "missing string %S" k)
  in
  let num ?default k =
    match (J.member k j, default) with
    | Some (J.Num f), _ -> Ok f
    | None, Some d -> Ok d
    | _ -> Error (Printf.sprintf "missing number %S" k)
  in
  match j with
  | J.Obj _ ->
    let* name = str "name" in
    let* p = str "ph" in
    let cat = match J.member "cat" j with Some (J.Str c) -> c | _ -> "" in
    let pid0 = float_of_int (pid_of_cat cat) in
    let* ts, pid, tid =
      if p = "M" then
        let lax k d = Result.value ~default:d (num ~default:d k) in
        Ok (0., lax "pid" pid0, lax "tid" 0.)
      else
        let* ts = num "ts" in
        let* pid = num ~default:pid0 "pid" in
        let* tid = num ~default:0. "tid" in
        Ok (ts, pid, tid)
    in
    let* ph =
      match p with
      | "B" -> Ok Begin
      | "E" -> Ok End
      | "i" -> Ok Instant
      | "C" -> Ok Counter
      | "M" -> Ok Meta
      | "X" -> (
        match J.member "dur" j with
        | Some (J.Num d) when d >= 0. -> Ok (Complete d)
        | _ -> Error "complete event without dur")
      | other -> Error (Printf.sprintf "unknown ph %S" other)
    in
    let args =
      match J.member "args" j with
      | Some (J.Obj kvs) ->
        List.filter_map
          (fun (k, v) ->
            match v with
            | J.Num f -> Some (k, F f)
            | J.Str s -> Some (k, S s)
            | J.Bool b -> Some (k, B b)
            | _ -> None)
          kvs
      | _ -> []
    in
    Ok
      ( int_of_float pid,
        { name; cat; ts_us = ts; tid = int_of_float tid; ph; args } )
  | _ -> Error "not an object"

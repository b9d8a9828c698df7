(* BENCH_solver.json: one reader and one writer, so the file has one
   layout and a malformed row is an error instead of a row that quietly
   drops out of the gate. *)

module J = Obs.Json

type run = {
  r_kernel : string;
  r_mode : string;
  r_slots : int;
  r_status : string;
  r_engine : string;
  r_makespan : int option;
  r_fallback : int option;
  r_nodes : int;
  r_failures : int;
  r_propagations : int;
  r_time_ms : float;
  r_optimal : bool;
  r_minor_words : int;
  r_node_budget : int option;
}

type prow = {
  pr_name : string;
  pr_runs : int;
  pr_wakes : int;
  pr_prunes : int;
  pr_entails : int;
  pr_time_ms : float;
}

type profile = {
  p_kernel : string;
  p_optimal : bool;
  p_node_budget : int option;
  p_rows : prow list;
}

type t = { ocaml_version : string; runs : run list; profiles : profile list }

let empty = { ocaml_version = Sys.ocaml_version; runs = []; profiles = [] }

(* ------------------------------------------------------------------ *)
(* Reading *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let get what conv obj k =
  match J.member k obj with
  | None -> fail "lacks %S" k
  | Some v -> (
    match conv v with
    | Some x -> x
    | None -> fail "%S is not %s: %s" k what (J.to_string v))

let str = get "a string" (function J.Str s -> Some s | _ -> None)

let int =
  get "an integer" (function
    | J.Num f when Float.is_integer f -> Some (int_of_float f)
    | _ -> None)

let num = get "a number" (function J.Num f -> Some f | _ -> None)
let bool = get "a boolean" (function J.Bool b -> Some b | _ -> None)

(* the counts written as null (or, in a profile, left out) when absent *)
let int_opt obj k =
  match J.member k obj with
  | None | Some J.Null -> None
  | Some _ -> Some (int obj k)

(* Decode every element of the array [obj.section]; an error names the
   element by index and, when it has one, by kernel or propagator. *)
let each section decode obj =
  let elems = get "an array" (function J.Arr l -> Some l | _ -> None) obj section in
  List.mapi
    (fun i e ->
      try decode e
      with Bad m ->
        let who =
          match (J.member "kernel" e, J.member "name" e) with
          | Some (J.Str s), _ | None, Some (J.Str s) -> Printf.sprintf " (%s)" s
          | _ -> ""
        in
        fail "%s[%d]%s: %s" section i who m)
    elems

let run_of_json r =
  {
    r_kernel = str r "kernel";
    r_mode = str r "mode";
    r_slots = int r "slots";
    r_status = str r "status";
    r_engine = str r "engine";
    r_makespan = int_opt r "makespan";
    r_fallback = int_opt r "fallback_makespan";
    r_nodes = int r "nodes";
    r_failures = int r "failures";
    r_propagations = int r "propagations";
    r_time_ms = num r "time_ms";
    r_optimal = bool r "optimal";
    r_minor_words = int r "minor_words";
    r_node_budget = int_opt r "node_budget";
  }

let prow_of_json p =
  {
    pr_name = str p "name";
    pr_runs = int p "runs";
    pr_wakes = int p "wakes";
    pr_prunes = int p "prunes";
    pr_entails = int p "entails";
    pr_time_ms = num p "time_ms";
  }

let profile_of_json k =
  {
    p_kernel = str k "kernel";
    p_optimal = bool k "optimal";
    p_node_budget = int_opt k "node_budget";
    p_rows = each "rows" prow_of_json k;
  }

let of_json j =
  match
    let ocaml_version = str j "ocaml_version" in
    let runs = each "runs" run_of_json j in
    { ocaml_version; runs; profiles = each "propagator_profiles" profile_of_json j }
  with
  | t -> Ok t
  | exception Bad m -> Error m

let read path = Result.bind (J.parse_file path) of_json

(* ------------------------------------------------------------------ *)
(* Writing: each run on five lines, the profile array on one *)

let jstr s = J.to_string (J.Str s)
let opt = function Some n -> string_of_int n | None -> "null"

let run_to_string r =
  Printf.sprintf
    "    { \"kernel\": %s, \"mode\": %s, \"slots\": %d, \"status\": %s,\n\
    \      \"engine\": %s, \"makespan\": %s, \"fallback_makespan\": %s,\n\
    \      \"nodes\": %d, \"failures\": %d,\n\
    \      \"propagations\": %d, \"time_ms\": %.1f, \"optimal\": %b,\n\
    \      \"minor_words\": %d, \"node_budget\": %s }"
    (jstr r.r_kernel) (jstr r.r_mode) r.r_slots (jstr r.r_status)
    (jstr r.r_engine) (opt r.r_makespan) (opt r.r_fallback) r.r_nodes
    r.r_failures r.r_propagations r.r_time_ms r.r_optimal r.r_minor_words
    (opt r.r_node_budget)

let profile_json p =
  let n i = J.Num (float_of_int i) in
  J.Obj
    ([ ("kernel", J.Str p.p_kernel); ("optimal", J.Bool p.p_optimal) ]
    @ (match p.p_node_budget with Some b -> [ ("node_budget", n b) ] | None -> [])
    @ [
        ( "rows",
          J.Arr
            (List.map
               (fun r ->
                 J.Obj
                   [
                     ("name", J.Str r.pr_name);
                     ("runs", n r.pr_runs);
                     ("wakes", n r.pr_wakes);
                     ("prunes", n r.pr_prunes);
                     ("entails", n r.pr_entails);
                     ("time_ms", J.Num r.pr_time_ms);
                   ])
               p.p_rows) );
      ])

let to_string t =
  let runs =
    match t.runs with
    | [] -> "[]"
    | rs -> "[\n" ^ String.concat ",\n" (List.map run_to_string rs) ^ "\n  ]"
  in
  Printf.sprintf
    "{\n\
    \  \"suite\": \"vecsched-solver\",\n\
    \  \"ocaml_version\": %s,\n\
    \  \"runs\": %s,\n\
    \  \"propagator_profiles\": %s\n\
     }\n"
    (jstr t.ocaml_version) runs
    (J.to_string (J.Arr (List.map profile_json t.profiles)))

let write path t =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string t))

(** BENCH_solver.json, the solver benchmark report: the regression rows
    that [bench perfjson] measures and [bench compare] gates against,
    and the per-propagator profiles of [bench profile].  This module is
    the file's only reader and only writer. *)

type run = {
  r_kernel : string;
  r_mode : string;  (** ["sequential"], ["portfolio-4"] or ["fallback"] *)
  r_slots : int;
  r_status : string;
  r_engine : string;
  r_makespan : int option;  (** [null] when no schedule came back *)
  r_fallback : int option;  (** ["fallback_makespan"]: the greedy's *)
  r_nodes : int;
  r_failures : int;
  r_propagations : int;
  r_time_ms : float;
  r_optimal : bool;
  r_minor_words : int;  (** minor-heap words the solve allocated *)
  r_node_budget : int option;  (** run under a node budget, no time limit *)
}

type prow = {
  pr_name : string;  (** propagator *)
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

type t = {
  ocaml_version : string;  (** the compiler that measured [minor_words] *)
  runs : run list;
  profiles : profile list;  (** ["propagator_profiles"] *)
}

val empty : t
(** No runs and no profiles, on the running compiler. *)

val of_json : Obs.Json.t -> (t, string) result
(** Every field of every run and profile row is required, with its
    type, except the counts that may be [null] or absent
    ([makespan], [fallback_makespan], [node_budget]).  The error names
    the offending row ("runs[14] (BLOCKED8): \"slots\" is not an
    integer: \"64\"").  Other top-level members are ignored. *)

val read : string -> (t, string) result
(** Parse a file with {!of_json}; a missing or non-JSON file is an
    [Error] too. *)

val to_string : t -> string
(** The file's one layout: each run row on five lines, the profile
    array on one line.  [to_string] of a read file reproduces the file
    byte for byte when it was written by {!write}. *)

val write : string -> t -> unit

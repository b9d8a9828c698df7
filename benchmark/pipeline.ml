(* One compile request: DSL trace -> merge -> solve (validation on) ->
   code generation -> cycle-accurate simulation checked against the IR
   reference evaluation.  The traced run replays the sequential path of
   [Sched.Solve.run] through its public parts, so each layer gets its
   own span. *)

open Eit_dsl

type input = { kind : string; seed : int option }

let cplx rng =
  Eit.Cplx.make (Random.State.float rng 2. -. 1.) (Random.State.float rng 2. -. 1.)

(* The seed varies input values only, never the graph, so a kind's
   optimum is a property of the kind.  [seed = None] builds the inputs
   the service compiles its named kernels from. *)
let trace { kind; seed } =
  let rng = Random.State.make [| Option.value seed ~default:0; 0x7ace |] in
  match (kind, seed) with
  | "qrd", None -> Apps.Qrd.graph (Apps.Qrd.build ())
  | "qrd", Some _ ->
    let h = Array.init 4 (fun _ -> Array.init 4 (fun _ -> cplx rng)) in
    Apps.Qrd.graph (Apps.Qrd.build ~h ())
  | "arf", _ -> Apps.Arf.graph (Apps.Arf.build ?seed ())
  | "matmul", None -> Apps.Matmul.graph (Apps.Matmul.build ())
  | "matmul", Some _ ->
    let a =
      List.init 4 (fun _ ->
          List.init 4 (fun _ -> float_of_int (1 + Random.State.int rng 9)))
    in
    Apps.Matmul.graph (Apps.Matmul.build ~a ())
  | "blocked8", _ -> Dsl.graph (Apps.Matmul.build_blocked8 ?seed ()).Apps.Matmul.bctx
  | "fir", _ -> Apps.Fir.graph (Apps.Fir.build ?seed ())
  | "detect", None -> Apps.Detect.graph (Apps.Detect.build ())
  | "detect", Some _ ->
    Apps.Detect.graph (Apps.Detect.build ~y:(Array.init 4 (fun _ -> cplx rng)) ())
  | "corr", _ -> Apps.Corr.graph (Apps.Corr.build ?seed ())
  | k, _ -> invalid_arg ("unknown kernel " ^ k)

let merge raw = (Merge.run raw).Merge.graph

(* The paper's kernels must be proven at these makespans (Table 3). *)
let expected_optimum = function
  | "qrd" -> Some 168
  | "arf" -> Some 56
  | "matmul" -> Some 11
  | _ -> None

(* blocked8 is a large-model stress test: a node budget keeps it
   deterministic, and it is held to its lower bound instead. *)
let budget = function
  | "blocked8" -> Fd.Search.node_budget 3_000
  | _ -> Fd.Search.time_budget 10_000.

type solved = {
  status : Fd.Search.status;
  schedule : Sched.Schedule.t option;
  nodes : int;
  propagations : int;
  failures : int;
  crashes : int;
  validation : (unit, string) result;  (* the solver's own validation *)
}

let report_string r = Format.asprintf "%a" Sched.Validate.pp_report r

let direct ?(parallel = 0) ~arch ~budget ir =
  let o = Sched.Solve.run ~budget ~arch ~parallel ir in
  let s = o.Sched.Solve.stats in
  {
    status = o.Sched.Solve.status;
    schedule = o.Sched.Solve.schedule;
    nodes = s.Fd.Search.nodes;
    propagations = s.Fd.Search.propagations;
    failures = s.Fd.Search.failures;
    crashes = List.length o.Sched.Solve.crashes;
    validation = Result.map_error report_string o.Sched.Solve.validation;
  }

(* [Solve.run]'s sequential path, one public call per layer: model build
   plus root fixpoint, branch and bound (the first incumbent is stamped
   before [Model.extract] runs), then the independent validator. *)
let replay tr samples ~kind ~arch ~budget ir =
  let deadline = Fd.Deadline.of_time_budget budget.Fd.Search.max_time_ms in
  let failed status msg =
    { status; schedule = None; nodes = 0; propagations = 0; failures = 0;
      crashes = 0; validation = Error msg }
  in
  match
    Span.record tr "sched.model" (fun () ->
        Sched.Model.build ~deadline ~memory:true ir arch)
  with
  | exception Fd.Store.Fail _ -> failed Fd.Search.Infeasible "root infeasible"
  | exception e -> failed Fd.Search.Crashed (Printexc.to_string e)
  | m ->
    let first = ref None in
    let a =
      Span.record tr "fd.search" (fun () ->
          let t0 = Span.now () in
          Fd.Search.minimize_anytime ~budget ~deadline ~tid:0 m.Sched.Model.store
            (Sched.Model.phases m) ~objective:m.Sched.Model.makespan
            ~on_solution:(fun () ->
              if !first = None then first := Some ((Span.now () -. t0) *. 1000.);
              Sched.Model.extract m))
    in
    Option.iter (Quant.add samples ("fd.first_incumbent_ms." ^ kind)) !first;
    let validation =
      match a.Fd.Search.incumbent with
      | None -> Ok ()
      | Some sch ->
        Span.record tr "sched.validate" (fun () ->
            Result.map_error report_string (Sched.Validate.schedule ~memory:true sch))
    in
    let s = a.Fd.Search.a_stats in
    {
      status = a.Fd.Search.a_status;
      schedule = a.Fd.Search.incumbent;
      nodes = s.Fd.Search.nodes;
      propagations = s.Fd.Search.propagations;
      failures = s.Fd.Search.failures;
      crashes = (if a.Fd.Search.crash = None then 0 else 1);
      validation;
    }

(* Run the generated program and compare every value an operation
   produced with the reference evaluation of the same graph. *)
let simulate ir prog =
  match Eit.Machine.run prog with
  | exception Eit.Machine.Sim_error e ->
    Error (Format.asprintf "simulation: %a" Eit.Machine.pp_error e)
  | res ->
    let reference = Hashtbl.of_seq (List.to_seq (Ir.eval ir)) in
    let produced = Hashtbl.of_seq (List.to_seq res.Eit.Machine.node_values) in
    let wrong op =
      match (Ir.succs ir op, Hashtbl.find_opt produced op) with
      | [ d ], Some got ->
        not (Eit.Value.equal ~eps:1e-6 (Hashtbl.find reference d) got)
      | _ -> true
    in
    (match List.find_opt wrong (Ir.op_nodes ir) with
    | None -> Ok ()
    | Some op -> Error (Printf.sprintf "simulated value of node %d differs from the reference" op))

type outcome = {
  input : input;
  ir : Ir.t;  (* the merged graph *)
  wall_ms : float;
  solve_ms : float;
  solved : solved;
  check : (unit, string) result;  (* code generation + simulation *)
}

let request tr ~rid ~solve input =
  let t0 = Span.now () in
  let solve_ms = ref 0. in
  let ir, solved, check =
    Span.record tr ~kind:input.kind ~rid "request" (fun () ->
        let raw = Span.record tr "apps.trace" (fun () -> trace input) in
        let ir = Span.record tr "eit_dsl.merge" (fun () -> merge raw) in
        let t1 = Span.now () in
        let solved = solve ir in
        solve_ms := (Span.now () -. t1) *. 1000.;
        let check =
          match solved.schedule with
          | None -> Error "no schedule"
          | Some sch -> (
            match Span.record tr "sched.codegen" (fun () -> Sched.Codegen.program sch) with
            | exception Invalid_argument m -> Error ("codegen: " ^ m)
            | prog -> Span.record tr "eit.sim" (fun () -> simulate ir prog))
        in
        (ir, solved, check))
  in
  let wall_ms = (Span.now () -. t0) *. 1000. in
  { input; ir; wall_ms; solve_ms = !solve_ms; solved; check }

let makespan o =
  Option.map (fun s -> s.Sched.Schedule.makespan) o.solved.schedule

(* The correctness oracle.  [bound] is the [Sched.Bounds] lower bound of
   the kind's graph.  The re-validation runs after the request's clock
   stopped. *)
let verdict ~bound o =
  let kind = o.input.kind in
  match (o.solved.schedule, o.solved.validation, o.check) with
  | None, _, _ -> Error (Printf.sprintf "%s: no schedule" kind)
  | _, Error m, _ -> Error (Printf.sprintf "%s: solver validation: %s" kind m)
  | _, _, Error m -> Error (Printf.sprintf "%s: %s" kind m)
  | Some sch, Ok (), Ok () -> (
    let mk = sch.Sched.Schedule.makespan in
    match Sched.Validate.schedule ~memory:true sch with
    | Error r -> Error (Printf.sprintf "%s: validator: %s" kind (report_string r))
    | Ok () -> (
      match expected_optimum kind with
      | Some e when o.solved.status <> Fd.Search.Optimal || mk <> e ->
        Error
          (Format.asprintf "%s: expected optimal %d, got %a %d" kind e
             Fd.Search.pp_status o.solved.status mk)
      | _ when mk < bound ->
        Error (Printf.sprintf "%s: makespan %d below lower bound %d" kind mk bound)
      | _ -> Ok ()))

(* Heuristic and bound of one request's graph, outside its span: they
   are reference points for the search, not part of the compile path. *)
let analyse tr samples ~arch o =
  let kind = o.input.kind in
  (match
     Span.record tr ~kind ~rid:(-1) "sched.heuristic" (fun () ->
         Sched.Heuristic.run ~arch o.ir)
   with
  | Ok sch ->
    Quant.add samples ("sched.heuristic_cycles." ^ kind)
      (float_of_int sch.Sched.Schedule.makespan)
  | Error _ -> ());
  Quant.add samples ("sched.bound_cycles." ^ kind)
    (float_of_int (Sched.Bounds.compute o.ir arch).Sched.Bounds.makespan)

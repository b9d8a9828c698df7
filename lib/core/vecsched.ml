module Dsl = Eit_dsl.Dsl
module Ir = Eit_dsl.Ir
module Merge = Eit_dsl.Merge
module Stats = Eit_dsl.Stats
module Xml = Eit_dsl.Xml
module Dot = Eit_dsl.Dot
module Arch = Eit.Arch
module Opcode = Eit.Opcode
module Cplx = Eit.Cplx
module Value = Eit.Value
module Schedule = Sched.Schedule
module Solve = Sched.Solve
module Overlap = Sched.Overlap
module Modulo = Sched.Modulo
module Manual_baseline = Sched.Manual_baseline
module Codegen = Sched.Codegen
module Machine = Eit.Machine

type compiled = {
  raw : Ir.t;
  ir : Ir.t;
  fusions : int;
  stats : Stats.t;
}

let compile ?protect raw =
  let m = Merge.run ?protect raw in
  {
    raw;
    ir = m.Merge.graph;
    fusions = m.Merge.fusions;
    stats = Stats.of_ir m.Merge.graph;
  }

let compile_dsl ctx =
  compile ~protect:(Dsl.declared_outputs ctx) (Dsl.graph ctx)

let schedule ?(budget_ms = 10_000.) ?(deadline = Fd.Deadline.none)
    ?(memory = true) ?(arch = Arch.default) ?(parallel = 0) ?cache c =
  Solve.run ~budget:(Fd.Search.time_budget budget_ms) ~deadline ~memory ~arch
    ~parallel ?cache c.ir

let run_on_simulator sched = Codegen.run_and_check sched

let kernels =
  [
    ("matmul", fun () -> Apps.Matmul.graph (Apps.Matmul.build ()));
    ("qrd", fun () -> Apps.Qrd.graph (Apps.Qrd.build ()));
    ("qrd-sorted", fun () -> Apps.Qrd.graph (Apps.Qrd.build ~sorted:true ()));
    ("arf", fun () -> Apps.Arf.graph (Apps.Arf.build ()));
    ("fir", fun () -> Apps.Fir.graph (Apps.Fir.build ()));
    ("corr", fun () -> Apps.Corr.graph (Apps.Corr.build ()));
    ("detect", fun () -> Apps.Detect.graph (Apps.Detect.build ()));
  ]

let version = "1.0.0"

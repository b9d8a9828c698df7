let program sch = Periodic.to_program (Periodic.of_schedule sch)

let run_and_check sch =
  Result.map ignore (Periodic.simulate (Periodic.of_schedule sch))

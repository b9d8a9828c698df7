(** Code generation: turn a schedule with memory allocation into an
    executable {!Eit.Instr.program}.

    A flat schedule is the one-iteration periodic schedule
    ({!Periodic.of_schedule}), so this is {!Periodic}'s materializer and
    value check at one iteration.  Vector data live in the schedule's
    own slots; scalar data live in virtual accelerator registers named
    after their IR node (the paper assumes optimal scalar allocation).
    Input data nodes become preload bindings, sink data nodes the
    program's outputs, and each cycle's issues one instruction bundle in
    node order. *)

val program : Schedule.t -> Eit.Instr.program
(** {!Periodic.to_program} at one iteration.
    @raise Invalid_argument if the schedule lacks a slot for some vector
    datum or an input lacks a trace value. *)

val run_and_check : Schedule.t -> (unit, string) result
(** Generate, simulate ({!Eit.Machine.run} with access checking: a
    validated schedule has no port violation), and compare every
    produced node value against the IR reference evaluation
    ({!Periodic.simulate}).  The full verification loop the paper leaves
    to the (unpublished) downstream toolchain. *)

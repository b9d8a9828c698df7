(** Vector-core configuration tracking (paper §4.3).

    The vector block's operation mode is set by configuration memories
    reloadable every cycle.  A *reconfiguration* happens whenever the
    configuration active in one effective cycle differs from the one in
    the previous effective cycle; idle cycles keep the last
    configuration.  The paper counts reconfigurations of the vector core
    only (MATMUL "uses only one type of operation ... therefore no
    reconfiguration is needed after the first instruction"). *)

type t = Opcode.t option
(** The configuration in force during one cycle; [None] = idle/nop. *)

val count_reconfigs : t list -> int
(** Number of configuration switches in a linear cycle sequence.  The
    initial load is not counted (matching the paper's MATMUL remark);
    idle cycles are transparent. *)

val count_reconfigs_cyclic : t list -> int
(** Same over a cyclic (steady-state modulo-schedule kernel) sequence:
    the wrap-around transition from the last effective configuration
    back to the first one also counts when they differ. *)

val effective : t list -> Opcode.t list
(** The sequence with idle cycles dropped. *)

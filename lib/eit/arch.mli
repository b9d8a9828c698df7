(** Architecture parameters of the EIT processor (paper §1.1).

    The vector block (PE2-4 + ME2) is a seven-stage pipeline — load,
    pre-process, 2x vector process, 2x post-process, write-back — with
    four homogeneous lanes of four CMAC units each.  The accelerator part
    (PE5-6) runs division / square root / CORDIC.  The vector memory has
    16 banks grouped in pages of 4 banks.

    Scalar-accelerator latencies are not published in the paper; the
    defaults below are calibrated so that the QRD critical path matches
    the reported 169 cycles (see DESIGN.md §5 and EXPERIMENTS.md). *)

type t = {
  n_lanes : int;            (** parallel vector lanes (4) *)
  vector_latency : int;     (** full pipeline latency in cycles (7) *)
  vector_duration : int;    (** issue slot occupancy (1) *)
  scalar_latency : int;     (** sqrt / div / CORDIC latency *)
  scalar_simple_latency : int; (** add / sub / mul on the accelerator *)
  scalar_duration : int;
  im_latency : int;         (** index / merge latency *)
  im_duration : int;
  banks : int;              (** memory banks (16) *)
  page_size : int;          (** banks per page (4) *)
  lines : int;              (** lines per bank *)
  slot_limit : int option;  (** restrict the usable slot count (Table 1
                                sweeps 64/32/16/10/9/8 available slots);
                                [None] means all [banks * lines] *)
  max_reads_per_cycle : int;   (** 8 vectors = two matrices *)
  max_writes_per_cycle : int;  (** 4 vectors = one matrix *)
}
(** Reconfigurations have no knob: the simulator ({!Machine.run}) and
    Table 2's overlap lengths charge no cycles for them, and Table 3's
    modulo kernels charge one cycle each ([actual_ii = ii +
    reconfigurations]). *)

val default : t
(** The EIT instance used throughout the paper's evaluation
    (64 slots: 16 banks x 4 lines). *)

val wide : t
(** A hypothetical next-generation instance (paper §5 names "other
    vector architectures" as future work): 8 lanes, a deeper 9-stage
    pipeline, 32 banks in pages of 4, and double the per-cycle memory
    bandwidth. *)

val mini : t
(** A small embedded instance: 2 lanes, 8 banks in pages of 4, 2 lines,
    half the bandwidth — for studying how schedules degrade when the
    architecture shrinks. *)

val presets : (string * t) list
(** [("eit", default); ("wide", wide); ("mini", mini)]. *)

val with_slots : t -> int -> t
(** [with_slots a n] makes exactly [n] slots usable (slots are numbered
    linearly across banks, so the first [n] slot numbers stay legal).
    @raise Invalid_argument if [n <= 0] or [n > banks * lines]. *)

val slots : t -> int
(** Total usable slots. *)

val latency : t -> Opcode.t -> int
(** Latency (cycles from issue until the result is usable). *)

val duration : t -> Opcode.t -> int
(** Issue-slot occupancy on the owning resource. *)

val resource_limit : t -> Opcode.resource_class -> int

val pp : Format.formatter -> t -> unit

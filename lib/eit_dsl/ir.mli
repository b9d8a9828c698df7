(** The intermediate representation (paper §3.2): a bipartite dataflow
    DAG of *operation* nodes and *data* nodes.

    Invariants (checked by {!validate}):
    - the graph is acyclic;
    - edges alternate: operation -> data and data -> operation only;
    - every data node has at most one predecessor (its producer); data
      nodes without a predecessor are application inputs;
    - every operation node has exactly one successor (the datum it
      produces) and [Opcode.arity op] ordered predecessors;
    - data nodes carry a value kind consistent with their producer. *)

type category =
  | Vector_op
  | Matrix_op
  | Scalar_op
  | Index
  | Merge
  | Vector_data
  | Scalar_data

val category_name : category -> string
val category_of_name : string -> category
val is_data : category -> bool
val is_op : category -> bool

type node = {
  id : int;
  cat : category;
  op : Eit.Opcode.t option;     (** [Some] iff operation node *)
  label : string;
  value : Eit.Value.t option;   (** trace value (inputs always have one) *)
}

type t

(** {1 Construction} *)

type builder

val builder : unit -> builder

val add_data :
  builder -> ?label:string -> ?value:Eit.Value.t -> [ `Vector | `Scalar ] -> int
(** Fresh data node; returns its id. *)

val add_op :
  builder -> ?label:string -> Eit.Opcode.t -> args:int list -> result:int -> int
(** Operation node consuming the (data) nodes [args] in operand order and
    producing the (data) node [result].
    @raise Invalid_argument on arity mismatch, non-data arguments, or a
    [result] that already has a producer. *)

val freeze : builder -> t
(** @raise Invalid_argument if the graph violates an IR invariant. *)

(** {1 Accessors} *)

val size : t -> int
(** Node count |V|. *)

val edge_count : t -> int
(** Edge count |E|. *)

val node : t -> int -> node
val nodes : t -> node list

val preds : t -> int -> int list
(** Predecessors; in operand order for operation nodes. *)

val succs : t -> int -> int list

val producer : t -> int -> int option
(** The operation producing a data node, if any. *)

val category : t -> int -> category

val opcode : t -> int -> Eit.Opcode.t
(** @raise Invalid_argument on data nodes. *)

val op_nodes : t -> int list
val data_nodes : t -> int list

val inputs : t -> int list
(** Data nodes without a producer. *)

val outputs : t -> int list
(** Data nodes without consumers. *)

val count : t -> category -> int

(** {1 Analyses} *)

val topo_order : t -> int list
(** Topological order (inputs first). *)

val validate : t -> (unit, string) result

val node_latency : t -> Eit.Arch.t -> int -> int
(** 0 for data nodes, [Arch.latency] for operation nodes. *)

val heads_tails : t -> Eit.Arch.t -> int array * int array
(** Per node, over latency-weighted paths ({!node_latency}): its head,
    the longest path into it, so its earliest start; and its tail, its
    own latency plus the longest path after it, so the least it adds to
    the makespan from its start.  The tail is the critical-path priority
    of list scheduling: the lower bounds, the greedy and the CP search's
    first phase all rank ops by it. *)

val critical_path : t -> Eit.Arch.t -> int
(** Length (in clock cycles) of the longest latency-weighted path, the
    largest tail.  This is the paper's |Cr.P|. *)

val eval : ?inputs:(int * Eit.Value.t) list -> t -> (int * Eit.Value.t) list
(** Reference evaluation: compute every data node's value from the input
    nodes' trace values, ignoring any recorded intermediate values.
    [inputs] overrides trace values per input node id — used to replay
    the same kernel on a stream of different data.
    @raise Invalid_argument if an input lacks a value, or if [inputs]
    names a non-input node or carries the wrong value kind. *)

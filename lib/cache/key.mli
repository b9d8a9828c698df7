(** Canonical cache keys for solve requests (DESIGN.md §11).

    A key identifies a scheduling problem — the merged IR, the
    architecture configuration and the solve options — up to
    alpha-renaming of node ids: two graphs that differ only in the
    order their nodes were built hash to the {e same} key, while any
    change that alters the model (an edge, an opcode, an arch knob, a
    solve option) yields a different one.

    Keys are collision-proof by construction: the full printable
    canonical encoding is retained in the key and compared on lookup;
    the MD5 digest is only a bucketing convenience.  Node labels and
    trace values are deliberately excluded — they do not change the
    scheduling model. *)

open Eit_dsl

type canon = {
  encoding : string;   (** printable canonical form of the graph *)
  to_canon : int array; (** node id -> canonical index *)
  of_canon : int array; (** canonical index -> node id *)
}
(** The canonical form of one graph.  [to_canon]/[of_canon] are inverse
    permutations; schedules are stored in canonical index space and
    replayed through them, so a hit from an isomorphic graph lands on
    the requesting graph's own node ids. *)

val canonicalize : Ir.t -> canon
(** Weisfeiler-Leman-style structural refinement (operand-position-
    sensitive up-hashes, sorted down-hashes) followed by
    individualization of residual ties, so automorphic builds agree on
    one canonical order.  Deterministic across processes: no
    [Hashtbl.hash], no address-dependent state. *)

type opts = {
  memory : bool;
  parallel : int;
  max_nodes : int option;
  max_time_ms : float option;
}
(** The solve options that are part of the problem identity.  Absolute
    deadlines and fault injection are excluded: the former is ephemeral
    wall-clock state, the latter disables caching entirely. *)

type t

val make : canon -> Eit.Arch.t -> opts -> t
(** Every field of {!Eit.Arch.t} enters the key. *)

val of_repr : string -> t
(** Rebuild a key from its stored representation (cache persistence). *)

val repr : t -> string
(** The full canonical representation — the key's identity. *)

val digest : t -> string
(** MD5 hex digest of {!repr} (bucketing only). *)

val equal : t -> t -> bool

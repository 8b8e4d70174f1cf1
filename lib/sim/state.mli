open Cpr_ir

(** Architectural machine state for the IR interpreter.

    Register values live in dense arrays indexed by {!Reg.t.id} (one per
    class); ids outside a small dense range, negative ones included, go
    to an overflow table, so a program naming [r1000000] costs one table
    entry, not a million-slot array.  Memory is an int-keyed hash table
    plus the trace of every store. *)

type t

val create : unit -> t

val read_gpr : t -> Reg.t -> int
(** Uninitialized registers read 0 (deterministic semantics so that
    speculated reads in property tests are well-defined). *)

val read_pred : t -> Reg.t -> bool
(** Uninitialized predicates read [false]. *)

val read_btr : t -> Reg.t -> string option
(** Uninitialized branch-target registers read [None]. *)

val write_gpr : t -> Reg.t -> int -> unit
val write_pred : t -> Reg.t -> bool -> unit
val write_btr : t -> Reg.t -> string -> unit
val read_mem : t -> int -> int
val write_mem : t -> int -> int -> unit

val set_memory : t -> (int * int) list -> unit
(** Initialize cells without recording them as stores. *)

val store_trace : t -> (int * int) list
(** Oldest first. *)

val memory_snapshot : t -> (int * int) list
(** Sorted by address. *)

val same_memory : t -> t -> bool
(** Equal final memories: the same cells bound to the same values
    (equivalent to comparing {!memory_snapshot}s, without sorting). *)

val same_store_trace : t -> t -> bool
(** The two whole store traces are identical. *)

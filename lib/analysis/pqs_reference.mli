(** The original structural-recursion predicate query engine, kept
    verbatim as the equivalence oracle for the hash-consed {!Pqs}
    (mirroring the [schedule_reference] pattern): every operation
    recomputes over freshly built DNF trees, with no interning and no
    memoization.  {!Pqs} shares this module's representation (the DNF
    type below, {!max_conjs} and {!conj_and}) but computes its cache
    misses with its own linear-time algebra, which must reproduce this
    module's results exactly — same conjunctions, same list order, same
    cap.  The oracle tests in [test_pqs]/[test_verify] therefore check
    both that algebra and the caching layer on top of it (same answers,
    same printed structure) over random expressions and real programs. *)

type lit = {
  key : Pqs_intf.key;
  pos : bool;
}

(** A conjunction is a list of literals sorted by {!Pqs_intf.key_compare}
    with unique keys; a contradictory conjunction is represented by its
    absence.  [Dnf []] is false and [Dnf [ [] ]] is true; {!Unknown} is
    an expression that outgrew {!max_conjs}. *)
type t =
  | Unknown
  | Dnf of lit list list

include Pqs_intf.S with type t := t

val max_conjs : int
(** An operation whose folded result has more conjunctions than this
    returns {!Unknown}. *)

val conj_and : lit list -> lit list -> lit list option
(** Merge two sorted conjunctions; [None] on contradiction. *)

val iter_lits : (Pqs_intf.key -> bool -> unit) -> t -> unit
(** Every literal occurrence (key, polarity), in DNF order; nothing for
    {!unknown}.  {!Pqs} folds this into per-node polarity fingerprints
    at intern time. *)

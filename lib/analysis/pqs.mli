open Cpr_ir

(** Predicate query system (hash-consed production engine).

    Elcor's "predicate-cognizant" analyses (Johnson & Schlansker, MICRO-29)
    answer queries such as "are these two predicates disjoint?".  We
    represent each predicate value as a boolean expression in
    disjunctive normal form over {e condition literals}: one literal per
    [cmpp] operation instance (both destinations of a [cmpp] share the
    literal, with opposite polarities for UN/UC), plus opaque literals for
    predicates that are live into a region.

    Distinct literals are treated as independent, which makes every
    positive answer sound (a syntactic contradiction in every conjunction
    pair is a genuine one) and negative answers conservative.  Expressions
    that exceed a size cap degrade to {!unknown}, for which every query
    answers "cannot prove".

    This engine interns every expression into a per-domain arena with a
    unique small-int id — maximal sharing, O(1) structural equality — and
    memoizes the binary operations and queries on id pairs.  Cache misses
    are computed by its own algebra, which runs the fold of
    {!Pqs_reference} (the original engine, kept as the equivalence
    oracle) in the same order on linear primitives — per-conjunction
    literal masks and merge walks — so it yields exactly the reference's
    DNF: same conjunctions, same order, same cap.  The oracle tests check
    that algebra and the caching layer on top.  See DESIGN.md
    "Hash-consed predicate engine". *)

type key = Pqs_intf.key =
  | Cond of int  (** condition computed by the [cmpp] with this op id *)
  | Entry of int  (** opaque: predicate register live into the region *)

type t

val tru : t
val fls : t
val unknown : t
val const : bool -> t
val cond_lit : int -> t
val entry_lit : Reg.t -> t

val and_ : t -> t -> t
val or_ : t -> t -> t
val not_ : t -> t

val is_const_false : t -> bool
val is_const_true : t -> bool
val is_unknown : t -> bool

val equal : t -> t -> bool
(** O(1) interned structural equality. *)

val disjoint : t -> t -> bool
(** [disjoint a b] proves that [a] and [b] are never simultaneously true.
    False means "cannot prove". *)

val implies : t -> t -> bool
(** [implies a b] proves that whenever [a] holds, [b] holds. *)

val eval : (key -> bool) -> t -> bool option
(** Evaluate under a truth assignment of the literals; [None] for
    {!unknown}.  Used by property tests to cross-check {!disjoint} and
    {!implies} against brute force. *)

val keys : t -> key list
(** Distinct literal keys appearing in the expression (empty for
    {!unknown}). *)

val pp : Format.formatter -> t -> unit

val invalidate : unit -> unit
(** Drop the calling domain's arena and memo tables (fresh ids keep
    counting, so stale entries can never alias new nodes).  Outstanding
    values remain valid — they only lose sharing with expressions
    interned later. *)

val trim : unit -> unit
(** {!invalidate}, but only once the arena exceeds a real program's
    working set.  Cached nodes and memoized answers are correct across
    programs (literals are keyed by op id and queries are purely
    syntactic), so invalidation exists to bound memory, not for
    correctness; program-boundary hooks ({!Cpr_pipeline.Passes}
    preparation, {!Cpr_verify.Verify.check_program}) call [trim] to keep
    caches warm across small programs in long fuzz/suite runs. *)

val to_reference : t -> Pqs_reference.t
(** The underlying node, for the equivalence oracle: feed the same
    construction through both engines and compare answers/structure. *)

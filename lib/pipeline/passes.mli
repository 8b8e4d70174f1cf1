open Cpr_ir

(** Pass composition: the two compiled codes the paper compares.

    The {e baseline} is the input superblock program with its training
    profile.  The {e height-reduced} code is the baseline after FRP
    conversion and the ICBM schema (predicate speculation, match,
    restructure, off-trace motion, DCE), re-profiled on the same training
    inputs so that the estimator and Table 3 see the transformed program's
    own execution frequencies. *)

type compiled = {
  prog : Prog.t;
  icbm : Cpr_core.Icbm.region_stats option;
      (** [Some] for the [icbm] stage only *)
  outcomes : Cpr_sim.Interp.outcome list option;
      (** the interpreter run of [prog] on each input, in input order,
          from the profile that produced [prog]'s counts; [None] for
          {!fallback_compiled}.  The baseline's profile precedes its
          chaos injection point, so a corruption injected there that
          the verifier misses still shows as a difference against
          them. *)
}

val profile_outcomes :
  Prog.t -> Cpr_sim.Equiv.input list -> Cpr_sim.Interp.outcome list
(** Clear and re-record region profiles by interpreting each input;
    returns the runs, in input order.  Bumps the
    [profile.input_sets] counter once per call. *)

val profile : Prog.t -> Cpr_sim.Equiv.input list -> unit
(** {!profile_outcomes}, discarding the runs. *)

val prepare : Prog.t -> Cpr_sim.Equiv.input list -> Prog.t
(** Profile a copy, form superblocks along the hot fall-through edges
    (tail-duplicating join points), prune unreachable regions, and
    re-profile — the IMPACT role; both compiled codes start here. *)

(** {2 The stage table}

    Every transformation stage is one row: a name, a one-line
    description and a transform that works in place on a {!prepare}d
    copy.  {!run} is the one skeleton around it: a [pass/<stage>] span,
    {!prepare} (or [?prepared]), the transform on a copy, the chaos
    injection point, structural validation, static verification
    against the prepared program, and the re-profile whose runs become
    {!compiled.outcomes}.  {!by_name}, {!protected}, {!Report.run} and
    the fuzzer's stage list ({!Cpr_fuzz.Stage}) all read this table. *)

type stage = {
  name : string;
  descr : string;
  transform : Cpr_core.Heur.t -> Prog.t -> Cpr_core.Icbm.region_stats option;
      (** in place; [Some] stats for ICBM, the only consumer of the
          heuristics *)
}

val stages : stage list
(** In pipeline order: [superblock], [ifconv], [frp], [spec], [unroll]
    (factor 2), [fullcpr], [icbm]. *)

val stage_names : string list
(** The names of {!stages}, in order; the chaos harness derives its
    plans from this order. *)

val find_stage : string -> stage option

val run :
  ?heur:Cpr_core.Heur.t -> ?verify:bool -> ?verify_time:float ref
  -> ?prepared:Prog.t -> stage -> Prog.t -> Cpr_sim.Equiv.input list
  -> compiled
(** Run one stage on a fresh copy; the input program is untouched.
    Raises [Invalid_argument] if the transformed program fails
    structural validation.

    Every stage statically verifies its own output by default
    ([verify] defaults to [true]): the {!Cpr_verify} lint plus per-stage
    translation validation against the pre-transformation program, with
    error findings raised as {!Cpr_verify.Verify.Verify_error}.  Pass
    [~verify:false] to skip (micro-benchmarks; drivers that verify
    separately), and [~verify_time] to accumulate the wall time spent
    verifying.  The verifier runs under a nested [verify/<stage>] span,
    with op-count/ICBM counters alongside — all dark unless a [--trace]
    sink enabled telemetry.

    [prepared], when given, must be [prepare prog inputs] (for instance
    the program of a committed {!baseline}); the transform then starts
    from a copy of it instead of preparing again, and [prepared] itself
    is not modified.  {!prepare} is deterministic, so the result is the
    same either way.

    The [superblock] row is [prepare] itself: it runs under
    [pass/baseline], ignores [prepared], trips its chaos point on the
    prepared program, is verified against the raw input, and keeps
    [prepare]'s last profile as its outcomes. *)

val baseline :
  ?verify:bool -> ?verify_time:float ref -> Prog.t
  -> Cpr_sim.Equiv.input list -> compiled
(** {!run} of the [superblock] row. *)

val height_reduce :
  ?heur:Cpr_core.Heur.t -> ?verify:bool -> ?verify_time:float ref
  -> ?prepared:Prog.t -> Prog.t -> Cpr_sim.Equiv.input list -> compiled
(** {!run} of the [icbm] row: FRP conversion and the ICBM schema on the
    prepared program, re-profiled. *)

(** {2 Stage dispatch and sandboxed execution} *)

type entry =
  ?verify:bool -> ?verify_time:float ref -> Prog.t
  -> Cpr_sim.Equiv.input list -> compiled

val by_name : string -> entry option
(** {!run} of the named row; [None] for names not in {!stages}. *)

val fallback_compiled : Prog.t -> Cpr_sim.Equiv.input list -> compiled
(** The verified fallback for a failed stage: a plain profiled copy of
    the {e pre-pass} IR — never a partially transformed working copy,
    whose in-place mid-pass state may violate invariants downstream
    stages rely on.  Infallible by construction (profiling is
    best-effort): {!Cpr_resilience.Recover.protect} does not sandbox
    the fallback thunk. *)

val protected :
  ?verify:bool ->
  ?verify_time:float ref ->
  ?retries:int ->
  ?bundle_dir:string ->
  ?machine:string ->
  ?prepared:Prog.t ->
  stage:string ->
  Prog.t ->
  Cpr_sim.Equiv.input list ->
  compiled Cpr_resilience.Recover.protected
(** Run the named stage under {!Cpr_resilience.Recover.protect}: on an
    exception or a verifier rejection the result is
    [Fell_back (fallback_compiled prog inputs, failure)] instead of a
    raised exception, with one retry for transient faults (default
    [retries = 1]).  [bundle_dir] additionally writes a replayable
    crash bundle on failure ([machine] is recorded in its metadata).
    The bundle records [prog], never [prepared]: replaying it prepares
    again, which reproduces [prepared].  Raises [Invalid_argument] on
    an unknown stage name. *)

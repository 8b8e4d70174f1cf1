open Cpr_ir

(** Cycle-based list scheduling for one region.

    Greedy: at each cycle the dependence-ready operations are considered in
    decreasing critical-path priority (ties broken by program order) and
    issued while the machine has free slots of their unit class.  The EPIC
    branch rules (no branch taking inside another taken branch's latency
    window, speculation/anticipation constraints) are entirely encoded in
    the dependence graph, so the scheduler itself is machine-generic. *)

val schedule :
  Cpr_machine.Descr.t -> Prog.t -> Cpr_analysis.Liveness.t -> Region.t
  -> Schedule.t
(** Ready-queue implementation: per-op unplaced-predecessor counters and
    cycle-keyed release buckets replace the full rescan of the reference
    scheduler, preserving its greedy policy (and output) exactly.
    {!Cpr_analysis.Depgraph.build} followed by {!schedule_graph}. *)

val schedule_graph :
  Cpr_machine.Descr.t -> Region.t -> Cpr_analysis.Depgraph.t -> Schedule.t
(** {!schedule} on a dependence graph the caller already built for this
    region and machine, for callers that also read the graph (the
    schedule and height checkers) and would otherwise build it twice. *)

val schedule_reference :
  Cpr_machine.Descr.t -> Prog.t -> Cpr_analysis.Liveness.t -> Region.t
  -> Schedule.t
(** The original rescan-everything scheduler, kept as the equivalence
    oracle for {!schedule}: both must emit identical cycle arrays on
    every program.  Quadratic per cycle — use only in tests. *)

val schedule_prog :
  ?pool:Cpr_par.Pool.t -> ?budget_ms:float -> Cpr_machine.Descr.t -> Prog.t
  -> (string * Schedule.t) list
(** Schedule every region of the program (computing liveness once);
    association list keyed by region label in layout order.  [?pool]
    distributes regions across domains (results stay in layout order);
    do not pass a pool whose worker is executing the caller.

    [?budget_ms] bounds each region's scheduling time: both schedulers
    checkpoint ({!Cpr_deadline.Deadline.check_current}) once per cycle
    of their main loop and unwind with [Deadline_exceeded] when over
    budget (with a pool, also when the pool watchdog poisons the task).
    Exceptions surface as [Cpr_par.Pool.Task_failed] on the pool path
    and bare on the sequential path. *)

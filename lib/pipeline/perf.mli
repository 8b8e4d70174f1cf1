open Cpr_ir

(** Compile-time performance estimation (Section 7).

    "Benchmark execution time is calculated as the sum across all blocks
    in the program of each block's schedule length weighted by its dynamic
    execution frequency."  Dynamic effects (caches, predictors) are
    ignored, as in the paper. *)

val estimate : Cpr_machine.Descr.t -> Prog.t -> int
(** Paper's estimator: Σ region schedule-length × profiled entry count. *)

val estimates : Cpr_machine.Descr.t list -> Prog.t -> (string * int) list
(** [(machine name, estimate machine prog)] for each machine, in order,
    from one liveness analysis of [prog]. *)

val estimate_exit_aware : Cpr_machine.Descr.t -> Prog.t -> int
(** Ablation refinement: entries leaving through a side exit are charged
    only up to the exit branch's completion, instead of the full region
    schedule length. *)

val bound_estimate : Cpr_machine.Descr.t -> Prog.t -> int
(** {!estimate} with each region's schedule length replaced by its static
    lower bound ({!Cpr_analysis.Height.of_region}): Σ region bound ×
    profiled entry count, without scheduling.  Always at most
    {!estimate}; the difference is the schedule-quality gap the bench
    harness tracks as [height_gap]. *)

val speedup : baseline:int -> transformed:int -> float

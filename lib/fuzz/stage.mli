open Cpr_ir

(** The registry of pipeline stage combinations the fuzzer exercises.

    A stage takes the raw generated program plus the training inputs and
    returns a transformed copy (the input program is never mutated:
    every stage starts from {!Cpr_pipeline.Passes.prepare}, which works
    on a deep copy, or from a copy of the prepared program it is
    given).  The differential driver checks each stage's output
    against the raw program under the architectural interpreter, so a
    stage is the unit of blame when a miscompile is found. *)

type t = {
  name : string;
  descr : string;
  apply : ?prepared:Prog.t -> Prog.t -> Cpr_sim.Equiv.input list -> Prog.t;
      (** [prepared], when given, must be
          [Cpr_pipeline.Passes.prepare prog inputs]: the stage then
          transforms a copy of it instead of preparing again (as
          {!Cpr_pipeline.Passes.run}'s [?prepared]), and [prepared]
          itself is not modified.  [superblock], which is [prepare]
          itself, ignores it. *)
}

val all : t list
(** One stage per row of {!Cpr_pipeline.Passes.stages} ([superblock],
    [ifconv], [frp], [spec], [unroll], [fullcpr], [icbm]), run without
    the pipeline's own verification, then [fullpipe]: the table's
    [ifconv], [unroll] and [icbm] transforms composed end to end. *)

val find : string -> t option

val parse : string -> (t list, string) result
(** Comma-separated stage names, or ["all"].  [Error] names the first
    unknown stage. *)

val names : string
(** Comma-separated list of every stage name, for usage messages. *)

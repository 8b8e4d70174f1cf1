open Cpr_ir

(** Cycle-level execution of scheduled code under the EQ (equals) model:

    - operations read their sources and guards at their issue cycle;
    - register and memory writes land exactly [latency] cycles after
      issue;
    - a taken branch redirects control [latency] cycles after issue;
      operations issued before that cycle complete, operations issued at
      or after it never issue;
    - two branches must never take with the same redirect cycle (the
      schedule checker and the dependence graph guarantee it; this
      executor treats it as a fatal error);
    - region boundaries synchronize pending writes.

    Running the scheduled program and comparing with the architectural
    interpreter validates the entire scheduling model: dependence graph,
    latencies, speculation and branch rules.

    Every entry point schedules each region of the program once, with
    {!Cpr_sched.List_sched}, into per-cycle issue groups, and executes
    those schedules for every input it is given; nothing is rescheduled
    per input. *)

type outcome = {
  state : State.t;
  exit_label : string option;
  cycles : int;  (** total machine cycles across all region executions *)
  region_entries : int;
}

exception Vliw_error of string

val run :
  ?state:State.t -> ?max_cycles:int -> Cpr_machine.Descr.t -> Prog.t
  -> outcome
(** Schedules every region and executes the schedules cycle by cycle
    from the program entry. *)

val check_outcomes :
  Cpr_machine.Descr.t -> Prog.t -> Equiv.input list -> Interp.outcome list
  -> (unit, string) result
(** [check_outcomes machine prog inputs outcomes]: execute the scheduled
    code on each input in order and compare it with the interpreter's
    run of [prog] on that input, given in [outcomes] (one per input, in
    input order), with {!Equiv.compare_outcomes}: exit labels, final
    memories, per-address store sequences and live-out registers.
    Stops at the first error; a {!Vliw_error} becomes
    [Error "vliw error: ..."].  Nothing is interpreted, so the result
    is {!check_against_interp}'s when [outcomes] are [prog]'s runs.
    Raises [Invalid_argument] when the lists differ in length. *)

val check_against_interp :
  Cpr_machine.Descr.t -> Prog.t -> Equiv.input list -> (unit, string) result
(** {!check_outcomes} against the interpreter, run here one input at a
    time: an input is interpreted only once every earlier input has
    passed. *)

open Cpr_ir

(** Differential equivalence checking between a program and its
    transformed version.

    Two programs are considered equivalent on an input when they reach the
    same exit label, leave the same final memory, produce the same
    per-address store sequences (transformations may not reorder writes to
    one cell), and agree on the program's declared live-out registers. *)

type input = {
  memory : (int * int) list;
  gprs : (Reg.t * int) list;
  preds : (Reg.t * bool) list;
}

val no_input : input
val input_of_memory : (int * int) list -> input

val input_to_string : input -> string
(** One-line rendering ([mem a=v ... ; gpr rN=v ... ; pred pN=0/1 ...])
    used by the fuzz-corpus artifacts and the crash bundles. *)

val input_of_string : string -> input
(** Inverse of {!input_to_string}.  Raises [Invalid_argument] or
    [Failure] on malformed text. *)

val initial_state : input -> State.t
(** A fresh state holding the input's memory and registers. *)

val run_on : ?profile:bool -> Prog.t -> input -> Interp.outcome
(** {!Interp.run} from {!initial_state}; [profile] as in {!Interp.run}. *)

val compare_outcomes :
  Prog.t -> Interp.outcome -> Interp.outcome -> (unit, string) result
(** [compare_outcomes reference ref_out cand_out]: the comparison half
    of {!check}, on two runs already made ([reference] supplies the
    live-out registers). *)

val check : Prog.t -> Prog.t -> input -> (unit, string) result
(** [check reference candidate input]: run both programs on [input] and
    {!compare_outcomes}; an interpreter that gets stuck is an error. *)

val check_many : Prog.t -> Prog.t -> input list -> (unit, string) result
(** {!check} on each input in order, stopping at the first error. *)

val check_outcomes :
  Prog.t -> Interp.outcome list -> Interp.outcome list -> (unit, string) result
(** [check_outcomes reference ref_outs cand_outs]: {!check_many} on runs
    already made, one outcome per input on each side, in input order —
    the same result as {!check_many} on the inputs that produced them.
    Raises [Invalid_argument] when the lists differ in length. *)

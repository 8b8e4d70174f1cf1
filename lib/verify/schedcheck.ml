open Cpr_ir
module Pqs = Cpr_analysis.Pqs
module Pred_env = Cpr_analysis.Pred_env
module Depgraph = Cpr_analysis.Depgraph
module Liveness = Cpr_analysis.Liveness
module Descr = Cpr_machine.Descr
module List_sched = Cpr_sched.List_sched
module Schedule = Cpr_sched.Schedule

(* Wiring class of a cmpp destination, when it is an accumulator
   destination: same-class writes to a common register are unordered by
   construction and must not be reported as WAW hazards. *)
let acc_class (op : Op.t) (d : Reg.t) =
  match op.Op.opcode with
  | Op.Cmpp (_, a1, a2) ->
    let action_at i = if i = 0 then Some a1 else a2 in
    let rec find i = function
      | [] -> None
      | d' :: rest ->
        if Reg.equal d d' then action_at i else find (i + 1) rest
    in
    (match find 0 op.Op.dests with
    | Some (Op.On | Op.Oc) -> Some `Or
    | Some (Op.An | Op.Ac) -> Some `And
    | _ -> None)
  | _ -> None

let check_region machine prog live ~stats (r : Region.t) =
  let dg = Depgraph.build machine prog live r in
  let sched = List_sched.schedule_graph machine r dg in
  let findings = ref [] in
  List.iter
    (fun v ->
      findings :=
        Finding.make ~check:"sched" ~severity:Finding.Error
          ~region:r.Region.label v
        :: !findings)
    (Schedule.check machine dg sched);
  let env = Pred_env.analyze r in
  let ops = sched.Schedule.ops in
  let pc = Pred_env.path_conds env in
  (* Execution condition of a write: path condition to reach the op, and
     its guard unless the destination writes even under a false guard. *)
  let write_cond i (op : Op.t) d =
    let exec = pc.(i) in
    if List.exists (Reg.equal d) (Op.writes_when_guard_false op) then exec
    else Pqs.and_ exec (Pred_env.guard_expr env i)
  in
  let defs_at = Hashtbl.create 17 in
  Array.iteri
    (fun i (op : Op.t) ->
      let completes = sched.Schedule.cycle.(i) + Descr.latency_of machine op in
      List.iter
        (fun d ->
          let key = (d, completes) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt defs_at key) in
          let wc_i = lazy (write_cond i op d) in
          List.iter
            (fun j ->
              let oj = ops.(j) in
              let same_acc =
                match (acc_class op d, acc_class oj d) with
                | Some a, Some b -> a = b
                | _ -> false
              in
              if not same_acc then
                if Pqs.disjoint (Lazy.force wc_i) (write_cond j oj d) then
                  stats.Finding.proved <- stats.Finding.proved + 1
                else
                  findings :=
                    Finding.make ~check:"sched-waw" ~severity:Finding.Error
                      ~region:r.Region.label ~op:op.Op.id
                      ~subject:(Reg.to_string d)
                      (Printf.sprintf
                         "ops %d and %d both write %s completing in cycle \
                          %d and are not provably disjoint"
                         oj.Op.id op.Op.id (Reg.to_string d) completes)
                    :: !findings)
            prev;
          Hashtbl.replace defs_at key (i :: prev))
        (Op.defs op))
    ops;
  List.rev !findings

let check ?(machine = Descr.medium) ~stats prog =
  let reachable = Dataflow.reachable_labels prog in
  let live = Liveness.analyze prog in
  List.concat_map
    (fun (r : Region.t) ->
      if Hashtbl.mem reachable r.Region.label && r.Region.ops <> [] then
        check_region machine prog live ~stats r
      else [])
    (Prog.regions prog)

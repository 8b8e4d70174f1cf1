open Cpr_ir
module A = Cpr_analysis
module S = Cpr_sched
module M = Cpr_machine.Descr
open Helpers

let schedule machine prog label =
  let l = A.Liveness.analyze prog in
  S.List_sched.schedule machine prog l (Prog.find_exn prog label)

let strcpy_lengths () =
  let prog, _ = profiled_strcpy () in
  (* sequential: one op per cycle, 30 ops *)
  checki "sequential length = op count" 30
    (schedule M.sequential prog "Loop").S.Schedule.length;
  (* paper: the unroll-4 superblock has height 8 on a wide machine *)
  checki "wide length = dependence height" 8
    (schedule M.wide prog "Loop").S.Schedule.length;
  checkb "narrow between" true
    (let l = (schedule M.narrow prog "Loop").S.Schedule.length in
     l >= 8 && l <= 30)

let checker_accepts_all_machines () =
  let prog, _ = profiled_strcpy () in
  let l = A.Liveness.analyze prog in
  List.iter
    (fun m ->
      List.iter
        (fun (r : Region.t) ->
          let g = A.Depgraph.build m prog l r in
          let s = S.List_sched.schedule m prog l r in
          check
            Alcotest.(list string)
            (Printf.sprintf "%s/%s valid" m.M.name r.Region.label)
            [] (S.Schedule.check m g s))
        (Prog.regions prog))
    M.all

let checker_rejects_tampering () =
  let prog, _ = profiled_strcpy () in
  let l = A.Liveness.analyze prog in
  let r = Prog.find_exn prog "Loop" in
  let m = M.wide in
  let g = A.Depgraph.build m prog l r in
  let s = S.List_sched.schedule m prog l r in
  (* pull the last op to cycle 0: must violate something *)
  let cycle = Array.copy s.S.Schedule.cycle in
  cycle.(Array.length cycle - 1) <- 0;
  let bad = { s with S.Schedule.cycle } in
  checkb "tampered schedule rejected" true (S.Schedule.check m g bad <> [])

let sequential_one_per_cycle () =
  let prog, _ = profiled_strcpy () in
  let s = schedule M.sequential prog "Loop" in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun c ->
      checkb "one op per cycle" false (Hashtbl.mem seen c);
      Hashtbl.replace seen c ())
    s.S.Schedule.cycle

let narrow_respects_class_limits () =
  let prog, _ = profiled_strcpy () in
  let s = schedule M.narrow prog "Loop" in
  let per_cycle_class = Hashtbl.create 64 in
  Array.iteri
    (fun i op ->
      let key = (s.S.Schedule.cycle.(i), M.fu_of_op op) in
      Hashtbl.replace per_cycle_class key
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_cycle_class key)))
    s.S.Schedule.ops;
  Hashtbl.iter
    (fun (_, fu) n ->
      checkb "class limit respected" true (n <= M.slots M.narrow fu))
    per_cycle_class

let branch_issue_lookup () =
  let prog, _ = profiled_strcpy () in
  let s = schedule M.wide prog "Loop" in
  let br = List.hd (Region.branches (Prog.find_exn prog "Loop")) in
  checkb "branch issue found" true (S.Schedule.branch_issue s br.Op.id <> None);
  checkb "unknown op" true (S.Schedule.branch_issue s 99999 = None)

let cpr_code_schedules_shorter_on_wide () =
  let prog, inputs, baseline = paper_transformed_strcpy () in
  Cpr_pipeline.Passes.profile prog inputs;
  let before = (schedule M.wide baseline "Loop").S.Schedule.length in
  let after = (schedule M.wide prog "Loop").S.Schedule.length in
  checkb
    (Printf.sprintf "wide loop length shrinks (%d -> %d; paper 8 -> 7)" before
       after)
    true
    (after < before)

(* property: every schedule of every machine on random programs passes the
   checker *)
let prop_schedules_valid =
  QCheck2.Test.make ~name:"list schedules respect deps and resources" ~count:40
    QCheck2.Gen.(int_range 0 400)
    (fun seed ->
      let prog = Cpr_workloads.Gen.prog_of_seed seed in
      let l = A.Liveness.analyze prog in
      List.for_all
        (fun m ->
          List.for_all
            (fun (r : Region.t) ->
              let g = A.Depgraph.build m prog l r in
              let s = S.List_sched.schedule m prog l r in
              S.Schedule.check m g s = [])
            (Prog.regions prog))
        [ M.sequential; M.narrow; M.medium; M.wide; M.infinite ])

(* Equivalence oracle for the ready-queue rewrite: the production
   scheduler and the kept-for-test reference must emit identical cycle
   arrays (hence lengths) for every region, on every machine, across the
   whole workload registry and a fuzz battery. *)
let oracle_agrees name machine prog =
  let l = A.Liveness.analyze prog in
  List.iter
    (fun (r : Region.t) ->
      let s_new = S.List_sched.schedule machine prog l r in
      let s_ref = S.List_sched.schedule_reference machine prog l r in
      let where =
        Printf.sprintf "%s/%s/%s" name machine.M.name r.Region.label
      in
      checki (where ^ " length") s_ref.S.Schedule.length
        s_new.S.Schedule.length;
      check
        Alcotest.(array int)
        (where ^ " cycles") s_ref.S.Schedule.cycle s_new.S.Schedule.cycle)
    (Prog.regions prog)

let oracle_on_workloads () =
  List.iter
    (fun (w : Cpr_workloads.Workload.t) ->
      let prog = w.Cpr_workloads.Workload.build () in
      List.iter
        (fun m -> oracle_agrees w.Cpr_workloads.Workload.name m prog)
        M.all)
    Cpr_workloads.Registry.all

let oracle_on_fuzz_programs () =
  for seed = 0 to 199 do
    let prog = Cpr_workloads.Gen.prog_of_seed seed in
    List.iter
      (fun m -> oracle_agrees (Printf.sprintf "seed%d" seed) m prog)
      M.all
  done

(* Scheduling a graph the caller built is [schedule] itself, and it
   leaves the graph reusable: scheduling the same graph twice gives the
   same cycles.  Raw and height-reduced code of every workload, on every
   machine. *)
let schedule_graph_matches_schedule () =
  List.iter
    (fun (w : Cpr_workloads.Workload.t) ->
      let raw = w.Cpr_workloads.Workload.build () in
      let reduced =
        (Cpr_pipeline.Passes.height_reduce ~verify:false raw
           (w.Cpr_workloads.Workload.inputs ()))
          .Cpr_pipeline.Passes.prog
      in
      List.iter
        (fun (kind, prog) ->
          let l = A.Liveness.analyze prog in
          List.iter
            (fun m ->
              List.iter
                (fun (r : Region.t) ->
                  let where =
                    Printf.sprintf "%s/%s/%s/%s" w.Cpr_workloads.Workload.name
                      kind m.M.name r.Region.label
                  in
                  let s = S.List_sched.schedule m prog l r in
                  let dg = A.Depgraph.build m prog l r in
                  List.iter
                    (fun pass ->
                      let g = S.List_sched.schedule_graph m r dg in
                      checki (where ^ pass ^ " length") s.S.Schedule.length
                        g.S.Schedule.length;
                      check
                        Alcotest.(array int)
                        (where ^ pass ^ " cycles") s.S.Schedule.cycle
                        g.S.Schedule.cycle)
                    [ " (first)"; " (graph reused)" ])
                (Prog.regions prog))
            M.all)
        [ ("raw", raw); ("reduced", reduced) ])
    Cpr_workloads.Registry.all

let suite =
  ( "scheduler",
    [
      case "strcpy schedule lengths" strcpy_lengths;
      case "checker accepts our schedules" checker_accepts_all_machines;
      case "checker rejects tampering" checker_rejects_tampering;
      case "sequential issues one op per cycle" sequential_one_per_cycle;
      case "narrow class limits" narrow_respects_class_limits;
      case "branch issue lookup" branch_issue_lookup;
      case "CPR shortens the wide loop" cpr_code_schedules_shorter_on_wide;
      case "ready-queue = reference on all workloads" oracle_on_workloads;
      case "ready-queue = reference on 200 fuzz programs"
        oracle_on_fuzz_programs;
      case "schedule_graph = schedule on all workloads"
        schedule_graph_matches_schedule;
      QCheck_alcotest.to_alcotest prop_schedules_valid;
    ] )

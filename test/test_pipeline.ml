open Cpr_ir
module P = Cpr_pipeline
module M = Cpr_machine.Descr
open Helpers
module B = Builder

let paper_estimator_formula () =
  (* two regions with known schedule lengths and entry counts *)
  let ctx = B.create () in
  let a = B.gpr ctx and b = B.gpr ctx in
  let r1 =
    B.region ctx "One" ~fallthrough:"Two" (fun e ->
        let (_ : Op.t) = B.movi e a 1 in
        let (_ : Op.t) = B.addi e b a 1 in
        ())
  in
  let r2 =
    B.region ctx "Two" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.addi e a b 1 in
        ())
  in
  let prog = B.prog ctx ~entry:"One" ~live_out:[ a ] [ r1; r2 ] in
  (Prog.find_exn prog "One").Region.entry_count <- 10;
  (Prog.find_exn prog "Two").Region.entry_count <- 7;
  (* sequential lengths: region One = mov@0, add@1 -> length 2;
     region Two = 1 *)
  checki "sum of length x frequency" ((2 * 10) + (1 * 7))
    (P.Perf.estimate M.sequential prog)

let exit_aware_never_exceeds () =
  List.iter
    (fun name ->
      let w = Option.get (Cpr_workloads.Registry.find name) in
      let prog = w.Cpr_workloads.Workload.build () in
      P.Passes.profile prog (w.Cpr_workloads.Workload.inputs ());
      List.iter
        (fun m ->
          checkb
            (Printf.sprintf "%s %s" name m.M.name)
            true
            (P.Perf.estimate_exit_aware m prog <= P.Perf.estimate m prog))
        M.all)
    [ "strcpy"; "grep" ]

let speedup_math () =
  check (Alcotest.float 1e-9) "2x" 2.0
    (P.Perf.speedup ~baseline:100 ~transformed:50);
  check (Alcotest.float 1e-9) "degenerate" 1.0
    (P.Perf.speedup ~baseline:100 ~transformed:0)

let gmean_math () =
  check (Alcotest.float 1e-9) "identity" 1.0 (P.Report.gmean [ 1.0; 1.0 ]);
  check (Alcotest.float 1e-6) "sqrt" 2.0 (P.Report.gmean [ 1.0; 4.0 ]);
  check (Alcotest.float 1e-9) "empty" 1.0 (P.Report.gmean [])

let report_shape () =
  let w = Option.get (Cpr_workloads.Registry.find "strcpy") in
  let r =
    P.Report.run ~name:"strcpy" (w.Cpr_workloads.Workload.build ())
      (w.Cpr_workloads.Workload.inputs ())
  in
  checkb "equivalent" true (r.P.Report.equivalent = Ok ());
  checki "five machines" 5 (List.length r.P.Report.speedups);
  check
    Alcotest.(list string)
    "machine order" [ "Seq"; "Nar"; "Med"; "Wid"; "Inf" ]
    (List.map fst r.P.Report.speedups);
  (* paper directional facts for strcpy *)
  checkb "dynamic branches collapse" true (r.P.Report.d_br < 0.5);
  checkb "dynamic ops shrink (irredundant)" true (r.P.Report.d_tot < 1.0);
  checkb "static code grows moderately" true
    (r.P.Report.s_tot > 1.0 && r.P.Report.s_tot < 1.6);
  checkb "wide speedup exceeds sequential-adjacent narrow" true
    (List.assoc "Wid" r.P.Report.speedups
    > List.assoc "Nar" r.P.Report.speedups);
  checkb "infinite at least wide" true
    (List.assoc "Inf" r.P.Report.speedups
    >= List.assoc "Wid" r.P.Report.speedups -. 1e-9)

let profile_rerecords () =
  let prog, inputs = profiled_strcpy () in
  let before = (loop_of prog).Region.entry_count in
  P.Passes.profile prog inputs;
  checki "profile clears before recording" before
    (loop_of prog).Region.entry_count

let baseline_does_not_mutate_input () =
  let prog, inputs = profiled_strcpy () in
  let text = Printer.to_text prog in
  let (_ : P.Passes.compiled) = P.Passes.baseline prog inputs in
  let (_ : P.Passes.compiled) = P.Passes.height_reduce prog inputs in
  check Alcotest.string "input program untouched" text (Printer.to_text prog)

(* Report.run's former sequence, rebuilt from the public entry points:
   each stage prepares for itself, the oracle runs both programs on the
   inputs again, and every estimate analyzes liveness anew.  Seven runs
   of the input set in all. *)
let seven_run_report ~name prog inputs =
  let base = (P.Passes.baseline prog inputs).P.Passes.prog in
  let reduced = P.Passes.height_reduce prog inputs in
  let red = reduced.P.Passes.prog in
  let cycles p =
    List.map (fun (m : M.t) -> (m.M.name, P.Perf.estimate m p)) M.all
  in
  let baseline_cycles = cycles base and reduced_cycles = cycles red in
  let bound_cycles = P.Perf.bound_estimate M.medium red in
  let achieved_cycles = List.assoc M.medium.M.name reduced_cycles in
  let s_tot, s_br, d_tot, d_br =
    Stats_ir.ratio (Stats_ir.of_prog red) (Stats_ir.of_prog base)
  in
  {
    P.Report.name;
    speedups =
      List.map2
        (fun (m, b) (_, t) -> (m, P.Perf.speedup ~baseline:b ~transformed:t))
        baseline_cycles reduced_cycles;
    s_tot;
    s_br;
    d_tot;
    d_br;
    baseline_cycles;
    reduced_cycles;
    icbm = Option.get reduced.P.Passes.icbm;
    equivalent = Cpr_sim.Equiv.check_many base red inputs;
    failures = [];
    bound_cycles;
    achieved_cycles;
    height_gap =
      (if bound_cycles = 0 then 0.
       else
         float_of_int (achieved_cycles - bound_cycles)
         /. float_of_int bound_cycles);
    pressure =
      List.map
        (fun (cls, v) -> (Cpr_verify.Pressurecheck.cls_name cls, v))
        (Cpr_verify.Pressurecheck.summary ~machine:M.medium red);
    verify_s = 0.;
    total_s = 0.;
  }

let report_matches_seven_runs () =
  List.iter
    (fun (w : Cpr_workloads.Workload.t) ->
      let name = w.Cpr_workloads.Workload.name in
      let prog = w.Cpr_workloads.Workload.build () in
      let inputs = w.Cpr_workloads.Workload.inputs () in
      let old = seven_run_report ~name prog inputs in
      let r = P.Report.run ~name prog inputs in
      checkb (name ^ ": every non-timing field equal") true
        (old = { r with P.Report.verify_s = 0.; total_s = 0. }))
    Cpr_workloads.Registry.all

let report_runs_inputs_three_times () =
  let module Obs = Cpr_obs.Obs in
  let w = Option.get (Cpr_workloads.Registry.find "strcpy") in
  let prog = w.Cpr_workloads.Workload.build () in
  let inputs = w.Cpr_workloads.Workload.inputs () in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let r = P.Report.run ~name:"strcpy" prog inputs in
      checkb "committed" false (P.Report.degraded r);
      checki "baseline profile x2, ICBM re-profile x1" 3
        (Obs.counter_value (Obs.counter "profile.input_sets")))

(* The stage table is the one map from a stage name to a transform: the
   fuzzer's stage list is the table plus its end-to-end extra, and the
   sandboxed, direct and fuzzer entries all build the same program. *)
let stage_table_agrees () =
  check
    Alcotest.(list string)
    "fuzz stages = table + fullpipe"
    (P.Passes.stage_names @ [ "fullpipe" ])
    (List.map (fun (s : Cpr_fuzz.Stage.t) -> s.Cpr_fuzz.Stage.name)
       Cpr_fuzz.Stage.all);
  List.iter
    (fun name ->
      let w = Option.get (Cpr_workloads.Registry.find name) in
      let prog = w.Cpr_workloads.Workload.build () in
      let inputs = w.Cpr_workloads.Workload.inputs () in
      List.iter
        (fun stage ->
          let what = name ^ " " ^ stage in
          let run : P.Passes.entry = Option.get (P.Passes.by_name stage) in
          let direct = run prog inputs in
          let text = Printer.to_text direct.P.Passes.prog in
          (match P.Passes.protected ~stage prog inputs with
          | Cpr_resilience.Recover.Committed c ->
            check Alcotest.string (what ^ ": protected = by_name") text
              (Printer.to_text c.P.Passes.prog)
          | Cpr_resilience.Recover.Fell_back _ ->
            Alcotest.failf "%s: protected fell back" what);
          let fz = Option.get (Cpr_fuzz.Stage.find stage) in
          check Alcotest.string (what ^ ": fuzz apply = by_name") text
            (Printer.to_text (fz.Cpr_fuzz.Stage.apply prog inputs)))
        P.Passes.stage_names)
    [ "strcpy"; "grep"; "099.go" ]

let suite =
  ( "pipeline & report",
    [
      case "paper estimator formula" paper_estimator_formula;
      case "exit-aware refinement bounded" exit_aware_never_exceeds;
      case "speedup math" speedup_math;
      case "gmean math" gmean_math;
      case "report shape (strcpy facts)" report_shape;
      case "profile re-records" profile_rerecords;
      case "pipeline copies its input" baseline_does_not_mutate_input;
      case "report = the seven-run sequence, all workloads"
        report_matches_seven_runs;
      case "report runs the input set 3 times" report_runs_inputs_three_times;
      case "stage table agrees across entry points" stage_table_agrees;
    ] )

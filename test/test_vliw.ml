open Cpr_ir
module Sim = Cpr_sim
module M = Cpr_machine.Descr
open Helpers
module B = Builder

let strcpy_vliw_matches () =
  let prog, inputs = profiled_strcpy () in
  List.iter
    (fun m ->
      match Sim.Vliw.check_against_interp m prog inputs with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" m.M.name e)
    M.all

let transformed_vliw_matches () =
  let prog, inputs, _ = paper_transformed_strcpy () in
  Cpr_pipeline.Passes.profile prog inputs;
  List.iter
    (fun m ->
      match Sim.Vliw.check_against_interp m prog inputs with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" m.M.name e)
    [ M.sequential; M.narrow; M.medium; M.wide; M.infinite ]

let latency_visibility () =
  (* a read scheduled in the shadow of a long-latency write sees the old
     value: reproduce with a hand-built schedule through the normal
     pipeline: load (lat 2) then an independent consumer-less op; the
     VLIW run must still produce the interpreter's final state *)
  let ctx = B.create () in
  let base = B.gpr ctx and a = B.gpr ctx and b = B.gpr ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.load e a ~base ~off:0 in
        let (_ : Op.t) = B.addi e b a 1 in
        let (_ : Op.t) = B.store e ~base ~off:1 (Op.Reg b) in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" ~noalias_bases:[ base ] [ region ] in
  let input = Sim.Equiv.input_of_memory [ (0, 41) ] in
  match Sim.Vliw.check_against_interp M.wide prog [ input ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let cycle_counts_scale_with_machine () =
  let prog, inputs = profiled_strcpy () in
  let input = List.nth inputs (List.length inputs - 1) in
  let cycles m =
    let st = Sim.State.create () in
    Sim.State.set_memory st input.Sim.Equiv.memory;
    (Sim.Vliw.run ~state:st m prog).Sim.Vliw.cycles
  in
  let seq = cycles M.sequential and wide = cycles M.wide in
  checkb "wide at least 2x faster than sequential on strcpy" true
    (wide * 2 <= seq)

let exit_aware_estimator_matches_vliw () =
  (* on a single profiled input, the exit-aware estimator equals the
     VLIW executor's cycle count for baseline region code *)
  let prog = Cpr_workloads.Strcpy.build ~unroll:4 () in
  let input = Cpr_workloads.Strcpy.string_input (List.init 17 (fun i -> i + 1)) in
  Cpr_pipeline.Passes.profile prog [ input ];
  let m = M.medium in
  let st = Sim.State.create () in
  Sim.State.set_memory st input.Sim.Equiv.memory;
  let vl = Sim.Vliw.run ~state:st m prog in
  checki "exit-aware estimate = executed cycles"
    (Cpr_pipeline.Perf.estimate_exit_aware m prog)
    vl.Sim.Vliw.cycles

let prop_vliw_matches_interp =
  QCheck2.Test.make ~name:"scheduled execution matches the interpreter"
    ~count:40
    QCheck2.Gen.(int_range 0 400)
    (fun seed ->
      let prog = Cpr_workloads.Gen.prog_of_seed seed in
      let inputs = [ Cpr_workloads.Gen.input_of_seed seed ~seed ] in
      List.for_all
        (fun m -> Sim.Vliw.check_against_interp m prog inputs = Ok ())
        [ M.sequential; M.medium; M.wide ])

let prop_vliw_matches_after_cpr =
  QCheck2.Test.make ~name:"scheduled execution matches after ICBM" ~count:30
    QCheck2.Gen.(int_range 0 400)
    (fun seed ->
      let prog = Cpr_workloads.Gen.prog_of_seed seed in
      let inputs = Cpr_workloads.Gen.inputs_of_seed seed in
      let red = Cpr_pipeline.Passes.height_reduce prog inputs in
      List.for_all
        (fun m ->
          Sim.Vliw.check_against_interp m red.Cpr_pipeline.Passes.prog inputs
          = Ok ())
        [ M.medium; M.wide ])

(* The height-reduced code of every workload, with the interpreter runs
   of its last profile (one per training input). *)
let reduced_workloads () =
  List.map
    (fun (w : Cpr_workloads.Workload.t) ->
      let inputs = w.Cpr_workloads.Workload.inputs () in
      let c =
        Cpr_pipeline.Passes.height_reduce ~verify:false
          (w.Cpr_workloads.Workload.build ())
          inputs
      in
      ( w.Cpr_workloads.Workload.name,
        c.Cpr_pipeline.Passes.prog,
        inputs,
        Option.get c.Cpr_pipeline.Passes.outcomes ))
    Cpr_workloads.Registry.all

let verdict = function Ok () -> "ok" | Error e -> "error: " ^ e

(* Given the program's own runs, [check_outcomes] is
   [check_against_interp] without the interpreter. *)
let check_outcomes_matches_interp () =
  List.iter
    (fun (name, prog, inputs, outs) ->
      List.iter
        (fun m ->
          check Alcotest.string
            (Printf.sprintf "%s/%s" name m.M.name)
            (verdict (Sim.Vliw.check_against_interp m prog inputs))
            (verdict (Sim.Vliw.check_outcomes m prog inputs outs)))
        M.all)
    (reduced_workloads ())

(* Handed the runs of a miscompiled copy, [check_outcomes] must reject
   them whenever they differ observably from the program's own runs. *)
let check_outcomes_rejects_faulty_runs () =
  let observable = ref 0 in
  List.iter
    (fun (name, prog, inputs, outs) ->
      List.iter
        (fun fault ->
          let faulty = Prog.copy prog in
          Cpr_fuzz.Fault.inject fault faulty;
          match List.map (Sim.Equiv.run_on faulty) inputs with
          | exception Sim.Interp.Stuck _ -> ()
          | faulty_outs ->
            if Sim.Equiv.check_outcomes prog outs faulty_outs <> Ok ()
            then begin
              incr observable;
              checkb
                (Printf.sprintf "%s/%s rejected" name
                   (Cpr_fuzz.Fault.name fault))
                true
                (Result.is_error
                   (Sim.Vliw.check_outcomes M.medium prog inputs faulty_outs))
            end)
        Cpr_fuzz.Fault.all)
    (reduced_workloads ());
  (* 60 of the 72 workload x fault pairs are observable today. *)
  checkb "most faults are observable" true (!observable >= 48)

let suite =
  ( "vliw executor",
    [
      case "strcpy baseline matches interp" strcpy_vliw_matches;
      case "strcpy transformed matches interp" transformed_vliw_matches;
      case "latency visibility" latency_visibility;
      case "cycles scale with machine" cycle_counts_scale_with_machine;
      case "exit-aware estimator = executed cycles" exit_aware_estimator_matches_vliw;
      case "check_outcomes = check_against_interp on all workloads"
        check_outcomes_matches_interp;
      case "check_outcomes rejects a miscompile's runs"
        check_outcomes_rejects_faulty_runs;
      QCheck_alcotest.to_alcotest prop_vliw_matches_interp;
      QCheck_alcotest.to_alcotest prop_vliw_matches_after_cpr;
    ] )

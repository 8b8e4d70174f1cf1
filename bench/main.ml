(* Benchmark harness.

   Two roles, mirroring the deliverables:

   1. Reproduce the paper's evaluation artifacts: Table 1 (cmpp
      semantics), the machines' register files, Table 2 (speedups per
      benchmark across the five processors), Table 3 (static/dynamic
      op-count ratios on the medium processor), and the Section 6 /
      Figures 6-7 strcpy walk-through numbers.  These are printed as
      the paper formats them.

   2. Bechamel micro-benchmarks of the compiler itself — one Test.make
      per table plus one per major pass — reporting ns/run for the
      machinery that regenerates each artifact. *)

open Bechamel
open Toolkit
module W = Cpr_workloads
module P = Cpr_pipeline
module Obs = Cpr_obs.Obs
open Cpr_ir

(* Reproducible-build convention: SOURCE_DATE_EPOCH overrides the wall
   clock wherever a date lands in output. *)
let bench_date () =
  let epoch =
    match
      Option.bind (Sys.getenv_opt "SOURCE_DATE_EPOCH") float_of_string_opt
    with
    | Some t -> t
    | None -> Unix.time ()
  in
  let tm = Unix.gmtime epoch in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday

let suite ~quick =
  if quick then
    List.filter_map W.Registry.find [ "strcpy"; "grep"; "099.go" ]
  else W.Registry.all

(* ------------------------------------------------------------------ *)
(* Table 1: cmpp semantics                                             *)

let print_table1 () =
  Format.printf "@.Table 1: behavior of compare operations@.@.";
  Format.printf "%-10s%-10s%6s%6s%6s%6s%6s%6s@." "input" "compare" "un" "uc"
    "on" "oc" "an" "ac";
  List.iter
    (fun (guard, cond) ->
      Format.printf "%-10d%-10d" (if guard then 1 else 0)
        (if cond then 1 else 0);
      List.iter
        (fun action ->
          match Op.cmpp_dest_update action ~guard ~cond with
          | Some v -> Format.printf "%6d" (if v then 1 else 0)
          | None -> Format.printf "%6s" "-")
        [ Op.Un; Op.Uc; Op.On; Op.Oc; Op.An; Op.Ac ];
      Format.printf "@.")
    [ (false, false); (false, true); (true, false); (true, true) ]

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3 over the workload suite                              *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let suite_jobs ~quick =
  List.map
    (fun (w : W.Workload.t) ->
      (w.W.Workload.name, w.W.Workload.build (), w.W.Workload.inputs ()))
    (suite ~quick)

let run_suite ?(quiet = false) ~quick ~domains () =
  let results =
    Cpr_par.Pool.with_pool ~domains (fun pool ->
        P.Report.run_many ~pool
          ~bundle_dir:Cpr_resilience.Bundle.default_dir (suite_jobs ~quick))
  in
  if not quiet then
    List.iter
      (fun (r : P.Report.result) ->
        (match r.P.Report.equivalent with
        | Ok () -> ()
        | Error e ->
          Format.eprintf "WARNING %s equivalence: %s@." r.P.Report.name e);
        List.iter
          (fun f ->
            Format.eprintf "WARNING %s %a@." r.P.Report.name
              Cpr_resilience.Recover.pp_failure f)
          r.P.Report.failures;
        Format.eprintf "  [%s done%s]@.%!" r.P.Report.name
          (if P.Report.degraded r then ", DEGRADED" else ""))
      results;
  results

(* The machine family: issue widths from the paper, register-file sizes
   from our HPL-PD-flavoured extension (the budgets `lint --pressure`
   checks MAXLIVE against). *)
let print_machines () =
  Format.printf "@.Machine register files (gpr/pred/btr per class)@.@.";
  Format.printf "%-14s%8s%8s%8s@." "Machine" "gpr" "pred" "btr";
  List.iter
    (fun (m : Cpr_machine.Descr.t) ->
      Format.printf "%-14s%8d%8d%8d@." m.Cpr_machine.Descr.name
        (Cpr_machine.Descr.regfile_size m Reg.Gpr)
        (Cpr_machine.Descr.regfile_size m Reg.Pred)
        (Cpr_machine.Descr.regfile_size m Reg.Btr))
    Cpr_machine.Descr.all

let print_table2 results =
  Format.printf
    "@.Table 2: the effectiveness of ICBM for processors with branch \
     latency 1 (speedups)@.@.";
  P.Report.print_table2 Format.std_formatter results;
  let spec95 =
    List.filter
      (fun (r : P.Report.result) ->
        List.mem r.P.Report.name W.Registry.spec95_names)
      results
  in
  if spec95 <> [] then begin
    Format.printf "%-14s" "Gmean-spec95";
    List.iter
      (fun (m : Cpr_machine.Descr.t) ->
        let col =
          List.map
            (fun (r : P.Report.result) ->
              List.assoc m.Cpr_machine.Descr.name r.P.Report.speedups)
            spec95
        in
        Format.printf "%8.2f" (P.Report.gmean col))
      Cpr_machine.Descr.all;
    Format.printf "@."
  end

let print_table3 results =
  Format.printf
    "@.Table 3: the effect of ICBM on static and dynamic operation counts \
     (medium processor)@.@.";
  P.Report.print_table3 Format.std_formatter results

(* ------------------------------------------------------------------ *)
(* Figures 6/7: the Section 6 walk-through numbers                     *)

let print_figure67 () =
  let prog = W.Strcpy.paper_example () in
  let inputs = W.Strcpy.inputs () in
  let base = P.Passes.baseline prog inputs in
  let red = P.Passes.height_reduce prog inputs in
  Format.printf "@.Figures 6-7 (Section 6): strcpy walk-through@.@.";
  Format.printf "loop ops: %d -> %d on-trace (paper: 30 -> 28 via the \
                 paper's blocking; the automatic heuristics pick one block)@."
    (Region.static_op_count (Prog.find_exn base.P.Passes.prog "Loop"))
    (Region.static_op_count (Prog.find_exn red.P.Passes.prog "Loop"));
  List.iter
    (fun m ->
      let lb = Cpr_sched.List_sched.schedule_prog m base.P.Passes.prog in
      let lr = Cpr_sched.List_sched.schedule_prog m red.P.Passes.prog in
      Format.printf "%s: loop schedule %d -> %d cycles@."
        m.Cpr_machine.Descr.name
        (List.assoc "Loop" lb).Cpr_sched.Schedule.length
        (List.assoc "Loop" lr).Cpr_sched.Schedule.length)
    [ Cpr_machine.Descr.medium; Cpr_machine.Descr.wide ]

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)

(* ICBM vs full (redundant) CPR — the trade-off motivating ICBM
   (Section 4: full CPR "aggressively accelerates all paths ... at the
   cost of a quadratic growth in the number of compares"; ICBM "is
   attractive for processors with limited parallelism"). *)
let ablation_full_cpr () =
  Format.printf "@.Ablation A: ICBM vs full (redundant) CPR, speedup over the baseline@.@.";
  Format.printf "%-12s%-10s%7s%7s%7s%7s%7s@." "bench" "variant" "Seq" "Nar"
    "Med" "Wid" "Inf";
  List.iter
    (fun name ->
      let w = Option.get (W.Registry.find name) in
      let inputs = w.W.Workload.inputs () in
      let base = P.Passes.baseline ~verify:false (w.W.Workload.build ()) inputs in
      let icbm =
        P.Passes.height_reduce ~verify:false (w.W.Workload.build ()) inputs
      in
      let full = Prog.copy base.P.Passes.prog in
      let loop = Prog.find_exn full "Loop" in
      let converted = Cpr_core.Frp.convert_region full loop in
      if converted then begin
        let (_ : Cpr_core.Spec.stats) =
          Cpr_core.Spec.speculate_region full loop
        in
        ignore (Cpr_core.Fullcpr.transform_region full loop : bool)
      end;
      P.Passes.profile full inputs;
      let speedups p =
        List.map
          (fun m ->
            P.Perf.speedup
              ~baseline:(P.Perf.estimate m base.P.Passes.prog)
              ~transformed:(P.Perf.estimate m p))
          Cpr_machine.Descr.all
      in
      List.iter
        (fun (variant, p) ->
          Format.printf "%-12s%-10s" name variant;
          List.iter (fun s -> Format.printf "%7.2f" s) (speedups p);
          Format.printf "@.")
        [ ("icbm", icbm.P.Passes.prog); ("full-cpr", full) ])
    [ "grep"; "cmp"; "023.eqntott" ]

(* Exit-weight threshold sweep: the single knob the paper identifies as
   the cause of sequential/narrow-machine losses (Section 7). *)
let ablation_exit_weight () =
  Format.printf
    "@.Ablation B: exit-weight threshold sweep (strcpy)@.@.";
  Format.printf "%-12s%7s%7s%7s%7s%7s@." "threshold" "Seq" "Nar" "Med" "Wid"
    "Inf";
  let w = Option.get (W.Registry.find "strcpy") in
  let inputs = w.W.Workload.inputs () in
  let base = P.Passes.baseline ~verify:false (w.W.Workload.build ()) inputs in
  List.iter
    (fun threshold ->
      let heur =
        { Cpr_core.Heur.default with
          Cpr_core.Heur.exit_weight_threshold = threshold }
      in
      let red =
        P.Passes.height_reduce ~heur ~verify:false (w.W.Workload.build ())
          inputs
      in
      Format.printf "%-12.2f" threshold;
      List.iter
        (fun m ->
          Format.printf "%7.2f"
            (P.Perf.speedup
               ~baseline:(P.Perf.estimate m base.P.Passes.prog)
               ~transformed:(P.Perf.estimate m red.P.Passes.prog)))
        Cpr_machine.Descr.all;
      Format.printf "@.")
    [ 0.05; 0.15; 0.30; 0.60; 0.95 ]

(* Estimator ablation: the paper's Sigma(length x frequency) vs the
   exit-aware refinement that charges side exits only up to the exit
   branch. *)
let ablation_estimator () =
  Format.printf
    "@.Ablation C: paper estimator vs exit-aware refinement (medium processor cycles)@.@.";
  Format.printf "%-14s%12s%12s@." "bench" "paper est" "exit-aware";
  List.iter
    (fun name ->
      let w = Option.get (W.Registry.find name) in
      let prog = w.W.Workload.build () in
      P.Passes.profile prog (w.W.Workload.inputs ());
      let m = Cpr_machine.Descr.medium in
      Format.printf "%-14s%12d%12d@." name (P.Perf.estimate m prog)
        (P.Perf.estimate_exit_aware m prog))
    [ "strcpy"; "grep"; "wc"; "023.eqntott" ]

(* Per-machine heuristics: the paper's stated future work ("the further
   development of distinct heuristics for each machine configuration
   would alleviate this problem", Section 7). *)
let ablation_per_machine () =
  Format.printf
    "@.Ablation D: uniform (medium-tuned) vs per-machine heuristics@.@.";
  let subset =
    List.filter_map W.Registry.find
      [ "strcpy"; "grep"; "cmp"; "023.eqntott"; "132.ijpeg"; "lex" ]
  in
  let gmean_for pick =
    List.map
      (fun (m : Cpr_machine.Descr.t) ->
        let speedups =
          List.map
            (fun (w : W.Workload.t) ->
              let inputs = w.W.Workload.inputs () in
              let base =
                P.Passes.baseline ~verify:false (w.W.Workload.build ()) inputs
              in
              let red =
                P.Passes.height_reduce ~heur:(pick m) ~verify:false
                  (w.W.Workload.build ()) inputs
              in
              P.Perf.speedup
                ~baseline:(P.Perf.estimate m base.P.Passes.prog)
                ~transformed:(P.Perf.estimate m red.P.Passes.prog))
            subset
        in
        (m.Cpr_machine.Descr.name, P.Report.gmean speedups))
      Cpr_machine.Descr.all
  in
  let uniform = gmean_for (fun _ -> Cpr_core.Heur.default) in
  let tuned = gmean_for Cpr_core.Heur.tuned_for in
  Format.printf "%-12s" "variant";
  List.iter (fun (n, _) -> Format.printf "%7s" n) uniform;
  Format.printf "@.%-12s" "uniform";
  List.iter (fun (_, g) -> Format.printf "%7.2f" g) uniform;
  Format.printf "@.%-12s" "per-machine";
  List.iter (fun (_, g) -> Format.printf "%7.2f" g) tuned;
  Format.printf "@."

let run_ablations () =
  ablation_full_cpr ();
  ablation_exit_weight ();
  ablation_estimator ();
  ablation_per_machine ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)

let strcpy_prog = lazy (W.Strcpy.build ~unroll:8 ())
let strcpy_inputs = lazy (W.Strcpy.inputs ())

let prepared_loop () =
  let prog = Prog.copy (Lazy.force strcpy_prog) in
  P.Passes.profile prog (Lazy.force strcpy_inputs);
  prog

let micro_tests =
  [
    (* Table 1 artifact: architectural cmpp execution *)
    Test.make ~name:"table1/cmpp-interp"
      (Staged.stage (fun () ->
           List.iter
             (fun action ->
               List.iter
                 (fun guard ->
                   ignore
                     (Op.cmpp_dest_update action ~guard ~cond:true : bool option))
                 [ true; false ])
             [ Op.Un; Op.Uc; Op.On; Op.Oc; Op.An; Op.Ac ]));
    (* Table 2 artifact: the full pipeline on one benchmark (transform
       only; the verifier has its own micro-benchmark below) *)
    Test.make ~name:"table2/pipeline-strcpy"
      (Staged.stage (fun () ->
           let prog = Lazy.force strcpy_prog in
           let inputs = Lazy.force strcpy_inputs in
           ignore
             (P.Passes.height_reduce ~verify:false prog inputs
               : P.Passes.compiled)));
    (* the static verifier itself *)
    Test.make ~name:"verify/check-program"
      (Staged.stage
         (let prog = lazy (prepared_loop ()) in
          fun () ->
            ignore
              (Cpr_verify.Verify.check_program (Lazy.force prog)
                : Cpr_verify.Verify.report)));
    (* Table 3 artifact: op-count statistics *)
    Test.make ~name:"table3/op-counts"
      (Staged.stage
         (let prog = lazy (prepared_loop ()) in
          fun () -> ignore (Stats_ir.of_prog (Lazy.force prog) : Stats_ir.t)));
    (* pass-level costs *)
    Test.make ~name:"pass/frp-convert"
      (Staged.stage (fun () ->
           let prog = prepared_loop () in
           ignore (Cpr_core.Frp.convert prog : int)));
    Test.make ~name:"pass/speculation"
      (Staged.stage (fun () ->
           let prog = prepared_loop () in
           let (_ : int) = Cpr_core.Frp.convert prog in
           ignore (Cpr_core.Spec.speculate prog : Cpr_core.Spec.stats)));
    Test.make ~name:"pass/icbm-full"
      (Staged.stage (fun () ->
           let prog = prepared_loop () in
           ignore (Cpr_core.Icbm.run prog : Cpr_core.Icbm.region_stats)));
    Test.make ~name:"pass/depgraph-medium"
      (Staged.stage
         (let prog = lazy (prepared_loop ()) in
          fun () ->
            let prog = Lazy.force prog in
            let l = Cpr_analysis.Liveness.analyze prog in
            ignore
              (Cpr_analysis.Depgraph.build Cpr_machine.Descr.medium prog l
                 (Prog.find_exn prog "Loop")
                : Cpr_analysis.Depgraph.t)));
    Test.make ~name:"pass/list-schedule-medium"
      (Staged.stage
         (let prog = lazy (prepared_loop ()) in
          fun () ->
            ignore
              (Cpr_sched.List_sched.schedule_prog Cpr_machine.Descr.medium
                 (Lazy.force prog)
                : (string * Cpr_sched.Schedule.t) list)));
    (* predicate engine: all-pairs guard queries over the prepared loop —
       after the first run every disjoint/implies answer is a memo hit,
       which is exactly the steady state the depgraph builder sees *)
    Test.make ~name:"analysis/pqs-queries"
      (Staged.stage
         (let env =
            lazy
              (let prog = prepared_loop () in
               Cpr_analysis.Pred_env.analyze (Prog.find_exn prog "Loop"))
          in
          fun () ->
            let env = Lazy.force env in
            let n = Array.length (Cpr_analysis.Pred_env.ops env) in
            let proved = ref 0 in
            for i = 0 to n - 1 do
              let gi = Cpr_analysis.Pred_env.guard_expr env i in
              for j = i + 1 to n - 1 do
                let gj = Cpr_analysis.Pred_env.guard_expr env j in
                if Cpr_analysis.Pqs.disjoint gi gj then incr proved;
                if Cpr_analysis.Pqs.implies gi gj then incr proved
              done
            done;
            ignore !proved));
    Test.make ~name:"sim/interp-strcpy-400"
      (Staged.stage
         (let prog = lazy (Lazy.force strcpy_prog) in
          let input =
            lazy (W.Strcpy.string_input (List.init 400 (fun i -> 1 + (i mod 200))))
          in
          fun () ->
            ignore
              (Cpr_sim.Equiv.run_on (Lazy.force prog) (Lazy.force input)
                : Cpr_sim.Interp.outcome)));
  ]

let run_micro () =
  Format.printf "@.Micro-benchmarks (Bechamel, monotonic clock)@.@.";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None
      ~stabilize:false ()
  in
  List.concat_map
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.fold
        (fun name ols_result acc ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) ->
            Format.printf "%-28s %12.0f ns/run@." name est;
            (name, Some est) :: acc
          | _ ->
            Format.printf "%-28s %12s@." name "n/a";
            (name, None) :: acc)
        results [])
    (List.map (fun t -> Test.make_grouped ~name:"bench" [ t ]) micro_tests)

(* ------------------------------------------------------------------ *)
(* JSON dump (--json)                                                  *)

(* Wall-clock behavior of the two pooled paths at one domain vs the
   requested count — the numbers the "Performance" section of the README
   tracks.  On a single-core host the pairs coincide (modulo noise);
   multi-core CI is where the spread shows. *)
let measure_parallel ~quick ~domains =
  let suite_wall d =
    snd
      (timed (fun () ->
           ignore
             (run_suite ~quiet:true ~quick ~domains:d ()
               : P.Report.result list)))
  in
  let fuzz_rate d =
    let stages =
      match Cpr_fuzz.Stage.parse "all" with
      | Ok s -> s
      | Error m -> failwith m
    in
    let n = 200 in
    let _, dt =
      timed (fun () ->
          Cpr_par.Pool.with_pool ~domains:d (fun pool ->
              ignore
                (Cpr_fuzz.Driver.run_seeds ~pool Cpr_fuzz.Driver.default_check
                   stages ~lo:0 ~hi:n
                  : (int * (Cpr_fuzz.Stage.t * Cpr_fuzz.Driver.outcome) list)
                    list)))
    in
    float_of_int n /. dt
  in
  let s1 = suite_wall 1 and sn = suite_wall domains in
  let f1 = fuzz_rate 1 and fn = fuzz_rate domains in
  ((s1, sn), (f1, fn))

let pqs_counter_names =
  [
    "pqs.queries";
    "pqs.fast_path_hits";
    "pqs.interned";
    "pqs.memo_hits";
    "pqs.memo_misses";
    (* Height- and pressure-analysis telemetry rides in the same
       counters object: bound queries answered, disjointness queries
       issued. *)
    "height.bound_queries";
    "pressure.queries";
  ]

let write_json ~domains ~dated ~latest results micro par =
  (* The previous latest, when one is on disk and readable, is what this
     run is compared against. *)
  let prev =
    Option.bind (P.Bench_io.read_file latest) (fun text ->
        Result.to_option (P.Bench_io.parse text))
  in
  let pqs =
    List.filter
      (fun (name, _) -> List.mem name pqs_counter_names)
      (Obs.counters ())
  in
  let contents =
    P.Bench_io.render ~pqs ~date:(bench_date ()) ~domains ~results ~micro ~par
      ()
  in
  List.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc -> output_string oc contents);
      Format.printf "@.wrote %s@." path)
    (if dated = latest then [ dated ] else [ dated; latest ]);
  Option.iter
    (fun (prev : P.Bench_io.baseline) ->
      if prev.P.Bench_io.micro <> [] then begin
        Format.printf "@.micro-bench vs previous %s:@." latest;
        List.iter
          (fun (name, est) ->
            match (est, List.assoc_opt name prev.P.Bench_io.micro) with
            | Some e, Some p when p > 0. ->
              Format.printf "  %-28s %12.0f -> %12.0f ns/run (x%.2f)@." name
                p e (e /. p)
            | _ -> ())
          (List.sort compare micro)
      end;
      match (prev.P.Bench_io.verify_total_s, results) with
      | Some p, _ :: _ when p > 0. ->
        let v, _ = P.Bench_io.suite_seconds results in
        Format.printf
          "@.static verifier vs previous: %.3fs -> %.3fs (x%.2f)@." p v
          (v /. p)
      | _ -> ())
    prev;
  (* Predicate-engine cache effectiveness, against the previous run when
     one is on disk.  Counts are workload-dependent, so only the hit
     rate is comparable across differently-sized runs. *)
  let count counters name =
    Option.value ~default:0 (List.assoc_opt name counters)
  in
  let rate counters =
    let h = count counters "pqs.memo_hits" in
    let total = h + count counters "pqs.memo_misses" in
    if total > 0 then Some (100. *. float_of_int h /. float_of_int total)
    else None
  in
  if pqs <> [] then begin
    Format.printf "@.pqs: %d queries, %d interned, memo hit rate %.1f%%"
      (count pqs "pqs.queries") (count pqs "pqs.interned")
      (Option.value ~default:0. (rate pqs));
    Option.iter
      (Format.printf " (previous %.1f%%)")
      (Option.bind prev (fun b -> rate b.P.Bench_io.pqs));
    Format.printf "@."
  end

(* ------------------------------------------------------------------ *)
(* Baseline gate (--check)                                             *)

let run_check ~tolerance ~baseline_path (baseline : P.Bench_io.baseline)
    results =
  let current =
    List.map
      (fun (r : P.Report.result) ->
        (r.P.Report.name, r.P.Report.verify_s, r.P.Report.total_s))
      results
  in
  (* A baseline workload absent from this run is skipped by the gate —
     warn so a workload that silently stopped running doesn't pass
     forever.  (--quick against a full-suite baseline warns by design.) *)
  List.iter
    (fun name ->
      Format.eprintf
        "--check: warning: baseline workload %s not in this run; not gated@."
        name)
    (P.Bench_io.missing_from_current ~baseline ~current);
  (* Schedule quality and register pressure: warn-only.  The height gap
     and MAXLIVE move whenever the optimizer legitimately changes the
     code it hands the scheduler, so they signal a trajectory to look
     at, never a gate failure; pressure only warns past its noise floor. *)
  List.iter
    (fun (r : P.Report.result) ->
      let name = r.P.Report.name in
      match
        List.find_opt
          (fun (b : P.Bench_io.workload) -> b.P.Bench_io.name = name)
          baseline.P.Bench_io.workloads
      with
      | None -> ()
      | Some b ->
        let cur =
          {
            P.Bench_io.gap = r.P.Report.height_gap;
            h_bound = r.P.Report.bound_cycles;
            h_achieved = r.P.Report.achieved_cycles;
          }
        in
        (match b.P.Bench_io.height with
        | Some base when P.Bench_io.height_regressed ~base ~cur ->
          Format.eprintf
            "--check: warning: %s height_gap regressed %.1f%% -> %.1f%% \
             (bound %d, achieved %d); not gated@."
            name
            (100. *. base.P.Bench_io.gap)
            (100. *. r.P.Report.height_gap)
            r.P.Report.bound_cycles r.P.Report.achieved_cycles
        | _ -> ());
        List.iter
          (fun (cls, cur) ->
            match List.assoc_opt cls b.P.Bench_io.pressure with
            | Some base when P.Bench_io.pressure_regressed ~base ~cur ->
              Format.eprintf
                "--check: warning: %s %s maxlive regressed %d -> %d; not \
                 gated@."
                name cls base cur
            | _ -> ())
          r.P.Report.pressure)
    results;
  let deltas = P.Bench_io.check ~tolerance ~baseline ~current in
  if deltas = [] then begin
    Format.eprintf
      "--check: no workload of this run appears in %s; nothing gated@."
      baseline_path;
    false
  end
  else begin
    Format.printf "@.perf gate vs %s (tolerance %.0f%%):@.@." baseline_path
      tolerance;
    P.Bench_io.pp_deltas Format.std_formatter deltas;
    match P.Bench_io.regressions deltas with
    | [] -> true
    | rs ->
      Format.printf "@.%d metric(s) regressed past %.0f%%@."
        (List.length rs) tolerance;
      false
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let bench quick sections domains json check tolerance trace =
  (* The baseline is read before anything runs: --json may rewrite the
     very file --check points at, and a gate that compares a run against
     itself always passes. *)
  let baseline =
    Option.map
      (fun path ->
        ( path,
          Option.fold ~none:(Error "no such file") ~some:P.Bench_io.parse
            (P.Bench_io.read_file path) ))
      check
  in
  match (sections, baseline) with
  | _ when domains < 1 ->
    `Error (true, "--domains expects a positive integer")
  | _ when tolerance < 0. ->
    `Error (true, "--tolerance expects a non-negative percentage")
  | `Micro_only, Some _ ->
    `Error (true, "--check needs the workload suite; drop --micro")
  | _, Some (path, Error msg) ->
    Format.eprintf "--check: cannot read baseline %s: %s@." path msg;
    `Ok 1
  | _ ->
    let json_target =
      Option.map
        (fun p ->
          P.Bench_io.targets
            ~is_dir:(Sys.file_exists p && Sys.is_directory p)
            ~date:(bench_date ()) p)
        json
    in
    (* Counters (pqs, pass, verify families) must accumulate whenever the
       run will be persisted, not just when a trace is requested: the JSON
       artifact reports predicate-engine cache effectiveness. *)
    if trace <> None || json_target <> None then Obs.set_enabled true;
    let results =
      if sections = `Micro_only then []
      else begin
        print_table1 ();
        print_machines ();
        let results =
          Obs.span "bench/suite" (fun () -> run_suite ~quick ~domains ())
        in
        let verify_total, suite_total = P.Bench_io.suite_seconds results in
        Format.printf
          "@.static verifier: %.2fs across %d workloads (%.1f%% of %.2fs \
           total suite work)@."
          verify_total (List.length results)
          (if suite_total > 0. then 100. *. verify_total /. suite_total
           else 0.)
          suite_total;
        print_table2 results;
        print_table3 results;
        print_figure67 ();
        Obs.span "bench/ablations" run_ablations;
        results
      end
    in
    let micro =
      if sections = `Tables_only then [] else Obs.span "bench/micro" run_micro
    in
    Option.iter
      (fun (dated, latest) ->
        let par =
          Obs.span "bench/parallel" (fun () ->
              measure_parallel ~quick ~domains)
        in
        write_json ~domains ~dated ~latest results micro par)
      json_target;
    let gate_ok =
      match baseline with
      | Some (baseline_path, Ok b) ->
        run_check ~tolerance ~baseline_path b results
      | _ -> true
    in
    Option.iter
      (fun path ->
        Obs.Trace.export ~path;
        Format.eprintf "@.span summary:@.%a" Obs.Summary.pp ();
        Format.eprintf "wrote trace %s@." path)
      trace;
    `Ok (if gate_ok then 0 else 1)

let () =
  let open Cmdliner in
  let path name docv doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)
  in
  let sections =
    Arg.(
      value
      & vflag `All
          [
            (`Tables_only, info [ "tables" ]
              ~doc:"Skip the micro-benchmarks.");
            (`Micro_only, info [ "micro" ] ~doc:"Skip the tables.");
          ])
  in
  let term =
    Term.(
      ret
        (const bench
        $ Arg.(
            value & flag
            & info [ "quick" ]
                ~doc:"Run the strcpy/grep/099.go subset, not the full suite.")
        $ sections
        $ Arg.(
            value
            & opt int (Cpr_par.Pool.default_domains ())
            & info [ "domains" ] ~docv:"N"
                ~doc:"Domains for the workload suite (results are \
                      identical for every $(docv); only the wall clock \
                      changes).")
        $ path "json" "PATH"
            "Also write the Table 2/3 numbers, micro-benchmark ns/run and \
             parallel wall clocks as JSON: into BENCH_<date>.json when \
             $(docv) is a directory, and always into a sibling \
             BENCH_latest.json, after comparing against the previous one."
        $ path "check" "BASELINE"
            "Gate per-workload total_s/verify_s and the matched suite time \
             against the bench JSON $(docv); exit 1 on a regression."
        $ Arg.(
            value & opt float 25.0
            & info [ "tolerance" ] ~docv:"PCT"
                ~doc:"Percentage a --check metric may exceed its baseline \
                      by (on top of a 20ms noise floor).")
        $ path "trace" "FILE"
            "Export the run as a Chrome-trace JSON to $(docv) and print a \
             span summary on stderr."))
  in
  let doc =
    "Reproduce the paper's tables and ablations and micro-benchmark the \
     compiler"
  in
  exit (Cmd.eval' (Cmd.v (Cmd.info "bench" ~doc) term))

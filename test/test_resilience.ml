(* The resilience layer: deadlines, recovery, crash bundles, chaos.

   The load-bearing invariants:
   - a poisoned or overdue deadline token unwinds at the next checkpoint,
     never asynchronously;
   - [Recover.protect] retries transient faults once, falls back
     immediately on deterministic verifier rejections, and never lets an
     exception escape the protected region;
   - every corpus reproducer with an injected fault ends in [Fell_back]
     (when the verifier catches the fault) or [Committed] (when the
     fault is inapplicable) — never an escaped exception;
   - crash bundles round-trip through the fuzz corpus loader;
   - the chaos harness's sweep holds the never-crash invariant. *)

open Helpers
module Deadline = Cpr_deadline.Deadline
module Recover = Cpr_resilience.Recover
module Bundle = Cpr_resilience.Bundle
module Chaos = Cpr_resilience.Chaos
module Pool = Cpr_par.Pool
module F = Cpr_fuzz
module P = Cpr_pipeline
module Obs = Cpr_obs.Obs

let fresh_dir prefix =
  let base = Filename.get_temp_dir_name () in
  let rec pick k =
    let d = Filename.concat base (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) k) in
    if Sys.file_exists d then pick (k + 1) else d
  in
  pick 0

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)

let deadline_overdue () =
  let d = Deadline.of_ms ~label:"t" 0.01 in
  Deadline.start d;
  while not (Deadline.overdue d) do () done;
  (match Deadline.check d with
  | () -> Alcotest.fail "overdue token did not trip"
  | exception Deadline.Deadline_exceeded { label; _ } ->
    check Alcotest.string "label attributed" "t" label);
  Deadline.finish d;
  checkb "finished token no longer runs" false (Deadline.running d)

let deadline_poison () =
  let d = Deadline.of_ms ~label:"p" 1e9 in
  Deadline.start d;
  Deadline.check d;
  Deadline.poison d;
  (match Deadline.check d with
  | () -> Alcotest.fail "poisoned token did not trip"
  | exception Deadline.Deadline_exceeded _ -> ());
  Deadline.finish d

let deadline_ambient () =
  Deadline.check_current ();
  let saw = ref [] in
  Deadline.with_budget ~label:"outer" ~ms:1e9 (fun () ->
      (match Deadline.current () with
      | Some _ -> saw := "outer" :: !saw
      | None -> Alcotest.fail "no ambient token inside with_budget");
      Deadline.with_budget ~label:"inner" ~ms:1e9 (fun () ->
          Deadline.check_current ();
          saw := "inner" :: !saw);
      match Deadline.current () with
      | Some _ -> saw := "restored" :: !saw
      | None -> Alcotest.fail "outer token not restored after inner");
  checkb "ambient cleared at exit" true (Deadline.current () = None);
  check Alcotest.(list string) "nesting order" [ "restored"; "inner"; "outer" ]
    !saw

let deadline_budget_trips () =
  match
    Deadline.with_budget ~label:"spin" ~ms:1.0 (fun () ->
        let t0 = Unix.gettimeofday () in
        while Unix.gettimeofday () -. t0 < 2.0 do
          Deadline.check_current ()
        done)
  with
  | () -> Alcotest.fail "budget never tripped the checkpoint loop"
  | exception Deadline.Deadline_exceeded { label; _ } ->
    check Alcotest.string "label" "spin" label

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let recover_commits () =
  match Recover.protect ~stage:"s" ~fallback:(fun () -> 0) (fun () -> 42) with
  | Recover.Committed 42 -> ()
  | _ -> Alcotest.fail "clean run must commit"

let recover_retries_transient () =
  let attempts = ref 0 in
  match
    Recover.protect ~stage:"s" ~fallback:(fun () -> 0) (fun () ->
        incr attempts;
        if !attempts = 1 then failwith "transient glitch";
        7)
  with
  | Recover.Committed 7 -> checki "one retry absorbed the glitch" 2 !attempts
  | _ -> Alcotest.fail "transient fault must commit after the retry"

let recover_falls_back_persistent () =
  let attempts = ref 0 in
  match
    Recover.protect ~stage:"s" ~fallback:(fun () -> 9) (fun () ->
        incr attempts;
        failwith "persistent")
  with
  | Recover.Fell_back (9, f) ->
    checki "retried once before giving up" 2 !attempts;
    checki "failure records the retry" 1 f.Recover.retries;
    check Alcotest.string "stage recorded" "s" f.Recover.stage
  | _ -> Alcotest.fail "persistent fault must fall back"

let recover_verify_error_no_retry () =
  let attempts = ref 0 in
  match
    Recover.protect ~stage:"s" ~fallback:(fun () -> 1) (fun () ->
        incr attempts;
        raise (Cpr_verify.Verify.Verify_error []))
  with
  | Recover.Fell_back (1, f) ->
    checki "verifier rejection is deterministic: no retry" 1 !attempts;
    checki "no retries recorded" 0 f.Recover.retries
  | _ -> Alcotest.fail "verifier rejection must fall back"

let recover_on_failure_swallowed () =
  match
    Recover.protect ~stage:"s"
      ~on_failure:(fun _ -> failwith "bundle writer exploded")
      ~fallback:(fun () -> 3)
      (fun () -> raise (Cpr_verify.Verify.Verify_error []))
  with
  | Recover.Fell_back (3, f) ->
    checkb "hook failure leaves bundle unset" true (f.Recover.bundle = None)
  | _ -> Alcotest.fail "hook exception must not escape recovery"

let recover_counters () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      ignore
        (Recover.protect ~stage:"s" ~fallback:(fun () -> 0) (fun () ->
             failwith "boom")
          : int Recover.protected);
      checki "fallback counted" 1
        (Obs.counter_value (Obs.counter "recover.fallbacks"));
      checki "retry counted" 1
        (Obs.counter_value (Obs.counter "recover.retries")))

(* ------------------------------------------------------------------ *)
(* Crash bundles                                                       *)

let bundle_roundtrip () =
  let prog, inputs = profiled_strcpy () in
  let dir = fresh_dir "cpr-bundle" in
  match
    Bundle.write ~dir ~machine:"Med" ~retries:1 ~inputs ~stage:"icbm"
      ~reason:"unit-test reason" ~prog ()
  with
  | Error msg -> Alcotest.failf "bundle write failed: %s" msg
  | Ok bdir -> (
    checkb "bundle under requested dir" true
      (String.length bdir > String.length dir);
    match F.Corpus.load (Bundle.input_file bdir) with
    | Error msg -> Alcotest.failf "corpus loader rejected bundle: %s" msg
    | Ok entry ->
      check Alcotest.string "stage round-trips" "icbm" entry.F.Corpus.stage;
      check Alcotest.string "reason round-trips" "unit-test reason"
        entry.F.Corpus.reason;
      checki "inputs round-trip" (List.length inputs)
        (List.length entry.F.Corpus.inputs);
      check Alcotest.string "program text round-trips"
        (Cpr_ir.Printer.to_text prog)
        (Cpr_ir.Printer.to_text entry.F.Corpus.prog);
      (* Same failure -> same content digest -> same directory. *)
      (match
         Bundle.write ~dir ~machine:"Med" ~retries:1 ~inputs ~stage:"icbm"
           ~reason:"unit-test reason" ~prog ()
       with
      | Ok bdir2 -> check Alcotest.string "idempotent id" bdir bdir2
      | Error msg -> Alcotest.failf "rewrite failed: %s" msg))

(* meta.json is read back with the JSON reader that shares its escaper:
   a reason carrying a quote, a backslash and control characters must
   come back byte for byte (newlines are flattened to spaces first). *)
let bundle_meta_parses () =
  let prog, inputs = profiled_strcpy () in
  let dir = fresh_dir "cpr-bundle-meta" in
  let reason = "bad \"quote\" \\ back\tslash \001 bell\nnext line" in
  match
    Bundle.write ~dir ~machine:"Med" ~retries:2 ~inputs ~stage:"icbm"
      ~reason ~prog ()
  with
  | Error msg -> Alcotest.failf "bundle write failed: %s" msg
  | Ok bdir -> (
    let ic = open_in_bin (Filename.concat bdir "meta.json") in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Obs.Json.parse text with
    | Error msg -> Alcotest.failf "meta.json does not parse: %s" msg
    | Ok (Obs.Json.Obj fields) ->
      let field k = List.assoc_opt k fields in
      checkb "id is the bundle directory" true
        (field "id" = Some (Obs.Json.Str (Filename.basename bdir)));
      checkb "stage" true (field "stage" = Some (Obs.Json.Str "icbm"));
      check Alcotest.(option string) "reason round-trips"
        (Some "bad \"quote\" \\ back\tslash \001 bell next line")
        (match field "reason" with
        | Some (Obs.Json.Str r) -> Some r
        | _ -> None);
      checkb "retries" true (field "retries" = Some (Obs.Json.Num 2.));
      checkb "machine" true (field "machine" = Some (Obs.Json.Str "Med"));
      checkb "inputs" true
        (field "inputs"
        = Some (Obs.Json.Num (float_of_int (List.length inputs))));
      checkb "findings" true (field "findings" = Some (Obs.Json.Arr []))
    | Ok _ -> Alcotest.fail "meta.json is not an object")

let bundle_via_protected () =
  let prog, inputs = profiled_strcpy () in
  let dir = fresh_dir "cpr-bundle-prot" in
  Chaos.arm ~stage:"icbm" Chaos.Corrupt;
  let result =
    Fun.protect ~finally:Chaos.disarm (fun () ->
        P.Passes.protected ~bundle_dir:dir ~stage:"icbm" prog inputs)
  in
  match result with
  | Recover.Fell_back (c, f) -> (
    checkb "fallback is the pre-pass program (no icbm stats)" true
      (c.P.Passes.icbm = None);
    match f.Recover.bundle with
    | None -> Alcotest.fail "degraded run must quarantine a bundle"
    | Some bdir ->
      checkb "bundle dir exists" true (Sys.file_exists bdir);
      checkb "meta.json written" true
        (Sys.file_exists (Filename.concat bdir "meta.json"));
      (match F.Corpus.load (Bundle.input_file bdir) with
      | Ok entry ->
        check Alcotest.string "bundle replays at the failing stage" "icbm"
          entry.F.Corpus.stage
      | Error msg -> Alcotest.failf "bundle not loadable: %s" msg))
  | Recover.Committed _ ->
    Alcotest.fail "corrupting fault must degrade the icbm stage"

(* ------------------------------------------------------------------ *)
(* Report.run: one prepare, equivalence from the profiling runs        *)

let strcpy_workload () =
  let w = Option.get (Cpr_workloads.Registry.find "strcpy") in
  (w.Cpr_workloads.Workload.build (), w.Cpr_workloads.Workload.inputs ())

let report_under stage prog inputs =
  Chaos.arm ~stage Chaos.Corrupt;
  Fun.protect ~finally:Chaos.disarm (fun () ->
      P.Report.run ~name:"chaos" prog inputs)

let failed_stages (r : P.Report.result) =
  List.map (fun f -> f.Recover.stage) r.P.Report.failures

(* A fallen-back baseline is the raw program, so ICBM prepares its own —
   and builds the very program a clean run builds from the copy.  On
   this generated program the verifier rejects the superblock stage's
   corruption (a dropped predicate definition). *)
let report_superblock_fault () =
  let prog = Cpr_workloads.Gen.prog_of_seed 90 in
  let inputs = Cpr_workloads.Gen.inputs_of_seed 90 in
  let clean = P.Report.run ~name:"gen-90" prog inputs in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  let r =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled was)
      (fun () -> report_under "superblock" prog inputs)
  in
  check Alcotest.(list string) "baseline fell back" [ "superblock" ]
    (failed_stages r);
  (* baseline prepare 2 + its fallback 1 + ICBM's own prepare 2 + ICBM
     re-profile 1 *)
  checki "icbm prepared for itself" 6
    (Obs.counter_value (Obs.counter "profile.input_sets"));
  checkb "icbm transformed" true
    (r.P.Report.icbm.Cpr_core.Icbm.blocks_transformed > 0);
  checkb "icbm output as in a clean run" true
    (r.P.Report.icbm = clean.P.Report.icbm
    && r.P.Report.reduced_cycles = clean.P.Report.reduced_cycles);
  checkb "equivalent (check_many against the fallback)" true
    (r.P.Report.equivalent = Ok ())

(* ICBM starting from the baseline's copy falls back; the fallback has
   no profiling runs, so equivalence must run both programs again. *)
let report_icbm_fault () =
  let prog, inputs = strcpy_workload () in
  let base = P.Passes.baseline prog inputs in
  Chaos.arm ~stage:"icbm" Chaos.Corrupt;
  (match
     Fun.protect ~finally:Chaos.disarm (fun () ->
         P.Passes.protected ~prepared:base.P.Passes.prog ~stage:"icbm" prog
           inputs)
   with
  | Recover.Fell_back (c, _) ->
    checkb "fallback carries no outcomes" true (c.P.Passes.outcomes = None)
  | Recover.Committed _ -> Alcotest.fail "corrupted icbm must fall back");
  let r = report_under "icbm" prog inputs in
  check Alcotest.(list string) "icbm fell back" [ "icbm" ] (failed_stages r);
  checkb "no icbm stats" true (r.P.Report.icbm = Cpr_core.Icbm.zero_stats);
  checkb "equivalent (check_many)" true (r.P.Report.equivalent = Ok ())

(* The bundle records the raw program; replaying it prepares afresh and
   must hit the failure the copy-started ICBM hit. *)
let report_icbm_bundle_replays () =
  let prog, inputs = strcpy_workload () in
  let dir = fresh_dir "cpr-bundle-copy" in
  Chaos.arm ~stage:"icbm" Chaos.Corrupt;
  Fun.protect ~finally:Chaos.disarm (fun () ->
      let r = P.Report.run ~bundle_dir:dir ~name:"strcpy" prog inputs in
      match r.P.Report.failures with
      | [ ({ Recover.bundle = Some bdir; _ } as f) ] -> (
        match F.Corpus.load (Bundle.input_file bdir) with
        | Error msg -> Alcotest.failf "bundle not loadable: %s" msg
        | Ok entry -> (
          match
            P.Passes.protected ~stage:entry.F.Corpus.stage entry.F.Corpus.prog
              entry.F.Corpus.inputs
          with
          | Recover.Fell_back (_, f') ->
            check Alcotest.string "same failure" f.Recover.reason
              f'.Recover.reason
          | Recover.Committed _ -> Alcotest.fail "replay must fail again"))
      | _ -> Alcotest.fail "one bundled icbm failure expected")

(* ------------------------------------------------------------------ *)
(* Pool watchdog                                                       *)

let pool_deadline_trips () =
  Pool.with_pool ~domains:2 (fun pool ->
      match
        Pool.map pool ~budget_ms:25.0
          ~label:(fun i -> "task-" ^ string_of_int i)
          (fun i ->
            if i = 1 then begin
              (* Cooperative spin: finishes only if the watchdog never
                 poisons the token (bounded so a broken watchdog fails
                 the test instead of hanging it). *)
              let t0 = Unix.gettimeofday () in
              while Unix.gettimeofday () -. t0 < 5.0 do
                Deadline.check_current ()
              done
            end;
            i)
          [ 0; 1; 2 ]
      with
      | _ -> Alcotest.fail "overlong task must trip its deadline"
      | exception Pool.Task_failed { index; label; cause; _ } -> (
        checki "failing task attributed" 1 index;
        check Alcotest.string "task label" "task-1" label;
        match cause with
        | Deadline.Deadline_exceeded _ -> ()
        | e -> Alcotest.failf "expected Deadline_exceeded, got %s"
                 (Printexc.to_string e)))

let pool_budget_clean_path () =
  Pool.with_pool ~domains:2 (fun pool ->
      check
        Alcotest.(list int)
        "fast tasks unaffected by a budget" [ 1; 2; 3 ]
        (Pool.map pool ~budget_ms:10_000.0 succ [ 0; 1; 2 ]))

let sched_budget_trips () =
  (* The scheduler checkpoints once per cycle of its main loop; a
     poisoned ambient token must unwind it. *)
  let prog, _ = profiled_strcpy () in
  let d = Deadline.of_ms ~label:"sched" 1e9 in
  Deadline.start d;
  Deadline.poison d;
  Deadline.set_current (Some d);
  Fun.protect
    ~finally:(fun () -> Deadline.set_current None)
    (fun () ->
      match
        Cpr_sched.List_sched.schedule_prog Cpr_machine.Descr.medium prog
      with
      | _ -> Alcotest.fail "poisoned token must unwind the scheduler"
      | exception Deadline.Deadline_exceeded _ -> ())

(* ------------------------------------------------------------------ *)
(* Corpus reproducers under injected faults                            *)

(* For every corpus artifact and every applicable injectable fault, a
   protected stage whose transform produces the faulted candidate must
   end in [Fell_back] when the static verifier catches the fault
   ([Caught]) and [Committed] when the fault does not apply — and no
   exception may escape in either case.  This pins the recovery wrapper
   to the verifier's fault battery: anything the verifier can catch, the
   pipeline can survive. *)
let corpus_faults_recover () =
  let entries = F.Corpus.load_dir "corpus" in
  checkb "corpus present" true (entries <> []);
  List.iter
    (fun (path, loaded) ->
      match loaded with
      | Error msg -> Alcotest.failf "%s: %s" path msg
      | Ok entry -> (
        let stage =
          match F.Stage.find entry.F.Corpus.stage with
          | Some s -> s
          | None -> Alcotest.failf "%s: unknown stage" path
        in
        match F.Static_check.check_entry entry with
        | Error msg -> Alcotest.failf "%s: %s" path msg
        | Ok r ->
          let before =
            if stage.F.Stage.name = "superblock" then
              Cpr_ir.Prog.copy entry.F.Corpus.prog
            else P.Passes.prepare entry.F.Corpus.prog entry.F.Corpus.inputs
          in
          let protected_with fault =
            Recover.protect ~stage:entry.F.Corpus.stage
              ~fallback:(fun () -> Cpr_ir.Prog.copy entry.F.Corpus.prog)
              (fun () ->
                let cand =
                  stage.F.Stage.apply entry.F.Corpus.prog entry.F.Corpus.inputs
                in
                Option.iter (fun f -> F.Fault.inject f cand) fault;
                Cpr_verify.Verify.check_stage_exn
                  ~stage:entry.F.Corpus.stage ~before cand;
                cand)
          in
          (* Pre-fault: historical reproducers are fixed, so the clean
             path must commit. *)
          (match (r.F.Static_check.clean, protected_with None) with
          | Ok (), Recover.Committed _ -> ()
          | Ok (), Recover.Fell_back (_, f) ->
            Alcotest.failf "%s: clean artifact degraded: %s" path
              f.Recover.reason
          | Error _, Recover.Fell_back _ -> ()
          | Error msg, Recover.Committed _ ->
            Alcotest.failf "%s: verifier found %s but protect committed" path
              msg
          | exception e ->
            Alcotest.failf "%s: clean path escaped: %s" path
              (Printexc.to_string e));
          List.iter
            (fun (fault, res) ->
              match (res, protected_with (Some fault)) with
              | F.Static_check.Caught _, Recover.Fell_back (_, f) ->
                checkb
                  (Printf.sprintf "%s/%s: findings recorded" path
                     (F.Fault.name fault))
                  true
                  (f.Recover.findings <> [])
              | F.Static_check.Caught _, Recover.Committed _ ->
                Alcotest.failf "%s: caught fault %s did not fall back" path
                  (F.Fault.name fault)
              | F.Static_check.Inapplicable, Recover.Committed _ -> ()
              | F.Static_check.Inapplicable, Recover.Fell_back (_, f) ->
                Alcotest.failf "%s: inapplicable fault %s degraded: %s" path
                  (F.Fault.name fault) f.Recover.reason
              (* A missed fault commits corrupt output: the verifier gap
                 is Static_check's finding, not a recovery escape. *)
              | F.Static_check.Missed, _ -> ()
              | exception e ->
                Alcotest.failf "%s: fault %s escaped recovery: %s" path
                  (F.Fault.name fault) (Printexc.to_string e))
            r.F.Static_check.faults))
    entries

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)

let chaos_fires_once () =
  let prog, _ = profiled_strcpy () in
  Chaos.arm ~stage:"icbm" Chaos.Raise;
  Fun.protect ~finally:Chaos.disarm (fun () ->
      (match Chaos.trip ~stage:"ifconv" prog with
      | () -> ()
      | exception _ -> Alcotest.fail "wrong stage must not fire");
      (match Chaos.trip ~stage:"icbm" prog with
      | () -> Alcotest.fail "armed stage must fire"
      | exception Chaos.Chaos_fault _ -> ());
      match Chaos.trip ~stage:"icbm" prog with
      | () -> ()
      | exception _ -> Alcotest.fail "Raise fires only once")

let chaos_corrupt_refires () =
  let prog, _ = profiled_strcpy () in
  let ops0 = Cpr_ir.Prog.static_op_count prog in
  Chaos.arm ~stage:"icbm" Chaos.Corrupt;
  Fun.protect ~finally:Chaos.disarm (fun () ->
      Chaos.trip ~stage:"icbm" prog;
      let ops1 = Cpr_ir.Prog.static_op_count prog in
      checki "corrupt drops exactly one op" (ops0 - 1) ops1;
      Chaos.trip ~stage:"icbm" prog;
      checki "corrupt fires on every attempt" (ops0 - 2)
        (Cpr_ir.Prog.static_op_count prog))

let chaos_plan_deterministic () =
  let plans = List.init 64 F.Chaos_run.plan_of_seed in
  check
    Alcotest.(list (pair string string))
    "plan is a pure function of the seed"
    (List.map (fun (s, k) -> (s, Chaos.kind_name k)) plans)
    (List.map
       (fun seed ->
         let s, k = F.Chaos_run.plan_of_seed seed in
         (s, Chaos.kind_name k))
       (List.init 64 Fun.id));
  let kinds =
    List.sort_uniq compare (List.map (fun (_, k) -> Chaos.kind_name k) plans)
  in
  checki "sweep covers all fault kinds" (List.length Chaos.all_kinds)
    (List.length kinds)

let chaos_invariant () =
  let dir = fresh_dir "cpr-chaos" in
  let outcomes = F.Chaos_run.run ~bundle_dir:dir ~lo:0 ~hi:24 () in
  let summary = F.Chaos_run.summarize outcomes in
  checkb "no escaped exceptions" true (F.Chaos_run.ok summary);
  checki "every seed accounted for" 24 summary.F.Chaos_run.seeds;
  List.iter
    (fun (o : F.Chaos_run.outcome) ->
      match o.F.Chaos_run.status with
      | F.Chaos_run.Degraded f ->
        checkb
          (Printf.sprintf "seed %d degraded with a bundle" o.F.Chaos_run.seed)
          true
          (f.Recover.bundle <> None)
      | F.Chaos_run.Committed | F.Chaos_run.Escaped _ -> ())
    outcomes

let chaos_pool_isolated () =
  (* The same range through a pool must match the sequential sweep
     status-for-status: injection state is domain-local. *)
  let dir1 = fresh_dir "cpr-chaos-seq" in
  let dir2 = fresh_dir "cpr-chaos-par" in
  let status o =
    match o.F.Chaos_run.status with
    | F.Chaos_run.Committed -> "committed"
    | F.Chaos_run.Degraded _ -> "degraded"
    | F.Chaos_run.Escaped _ -> "escaped"
  in
  let seq = F.Chaos_run.run ~bundle_dir:dir1 ~lo:0 ~hi:16 () in
  let par =
    Pool.with_pool ~domains:3 (fun pool ->
        F.Chaos_run.run ~pool ~bundle_dir:dir2 ~lo:0 ~hi:16 ())
  in
  check
    Alcotest.(list string)
    "pooled sweep matches sequential" (List.map status seq)
    (List.map status par)

let suite =
  ( "resilience",
    [
      case "deadline: overdue trips at checkpoint" deadline_overdue;
      case "deadline: poisoning trips at checkpoint" deadline_poison;
      case "deadline: ambient token nests and restores" deadline_ambient;
      case "deadline: with_budget bounds a checkpoint loop"
        deadline_budget_trips;
      case "recover: clean run commits" recover_commits;
      case "recover: transient fault retried once" recover_retries_transient;
      case "recover: persistent fault falls back" recover_falls_back_persistent;
      case "recover: verifier rejection skips the retry"
        recover_verify_error_no_retry;
      case "recover: on_failure exceptions swallowed"
        recover_on_failure_swallowed;
      case "recover: fallback/retry counters" recover_counters;
      case "bundle: corpus-format round-trip, idempotent id" bundle_roundtrip;
      case "bundle: meta.json parses back" bundle_meta_parses;
      case "bundle: written by the protected pipeline" bundle_via_protected;
      case "report: superblock fault, icbm prepares its own"
        report_superblock_fault;
      case "report: icbm fault falls back to check_many" report_icbm_fault;
      case "report: copy-started icbm bundle replays" report_icbm_bundle_replays;
      case "pool: watchdog trips an overlong task" pool_deadline_trips;
      case "pool: budget leaves fast tasks alone" pool_budget_clean_path;
      case "sched: poisoned token unwinds the scheduler" sched_budget_trips;
      case "corpus: injected faults recover, never escape"
        corpus_faults_recover;
      case "chaos: raise fires once, stage-gated" chaos_fires_once;
      case "chaos: corrupt refires every attempt" chaos_corrupt_refires;
      case "chaos: plan deterministic, covers all kinds"
        chaos_plan_deterministic;
      case "chaos: sweep never crashes, degraded runs bundle"
        chaos_invariant;
      case "chaos: pooled sweep matches sequential" chaos_pool_isolated;
    ] )

(* The fuzzing subsystem's own tests: corpus replay, determinism, and
   the oracle self-test (every injectable fault must be caught). *)

open Cpr_ir
module F = Cpr_fuzz
module W = Cpr_workloads
open Helpers

let corpus_dir = "corpus"

(* Every committed counterexample replays clean: an artifact records a
   historical miscompile, so a Fail here means the bug came back. *)
let corpus_replays_clean () =
  let entries = F.Corpus.load_dir corpus_dir in
  checkb "corpus is not empty" true (entries <> []);
  List.iter
    (fun (path, entry) ->
      match entry with
      | Error e -> Alcotest.failf "%s: unreadable artifact: %s" path e
      | Ok entry -> (
        match F.Corpus.replay entry with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: regressed: %s" path e))
    entries

(* Artifacts round-trip through the printer/parser: loading and
   re-printing an artifact's program is a fixpoint. *)
let corpus_round_trips () =
  List.iter
    (fun (path, entry) ->
      match entry with
      | Error e -> Alcotest.failf "%s: unreadable artifact: %s" path e
      | Ok (entry : F.Corpus.entry) ->
        let text = Printer.to_text entry.F.Corpus.prog in
        let reparsed = Parser_.of_text text in
        check Alcotest.string path text (Printer.to_text reparsed))
    (F.Corpus.load_dir corpus_dir)

(* Same seed, same configuration => byte-identical program and the same
   verdict.  Generation and checking share no hidden state. *)
let determinism () =
  List.iter
    (fun seed ->
      let p1 = W.Gen.prog_of_seed seed and p2 = W.Gen.prog_of_seed seed in
      check Alcotest.string
        (Printf.sprintf "program of seed %d" seed)
        (Printer.to_text p1) (Printer.to_text p2);
      let stage = Option.get (F.Stage.find "icbm") in
      let verdict o =
        match o with
        | F.Driver.Pass -> "pass"
        | F.Driver.Fail r -> "fail: " ^ r
        | F.Driver.Skip r -> "skip: " ^ r
      in
      check Alcotest.string
        (Printf.sprintf "verdict of seed %d" seed)
        (verdict (F.Driver.run_stage F.Driver.default_check stage ~seed))
        (verdict (F.Driver.run_stage F.Driver.default_check stage ~seed)))
    [ 0; 7; 52; 113 ]

(* Mutation testing of the oracle: each injectable miscompile must
   produce at least one failure over a small seed range, and the
   shrinker must reduce one to a tiny reproducer. *)
let faults_are_caught () =
  let stage = Option.get (F.Stage.find "icbm") in
  List.iter
    (fun fault ->
      let check_ = { F.Driver.default_check with F.Driver.fault = Some fault } in
      let failing =
        List.find_opt
          (fun seed ->
            match F.Driver.run_stage check_ stage ~seed with
            | F.Driver.Fail _ -> true
            | F.Driver.Pass | F.Driver.Skip _ -> false)
          (List.init 40 Fun.id)
      in
      match failing with
      | None ->
        Alcotest.failf "fault %s: no failure in seeds 0..40 — oracle is blind"
          (F.Fault.name fault)
      | Some seed ->
        let shrunk = F.Shrink.minimize check_ stage ~seed in
        let blocks = shrunk.F.Shrink.shape.W.Gen.blocks in
        if blocks > 3 then
          Alcotest.failf "fault %s seed %d: shrunk to %d blocks (want <= 3)"
            (F.Fault.name fault) seed blocks)
    F.Fault.all

(* The regression the fuzzer caught in Offtrace/Icbm (a moved branch
   whose reaching pbr stayed behind) and in Superblock.prune_unreachable
   (a region referenced only by a dangling pbr label): seed 52 through
   the end-to-end pipeline exercised both. *)
let seed_52_fullpipe () =
  let stage = Option.get (F.Stage.find "fullpipe") in
  match F.Driver.run_stage F.Driver.default_check stage ~seed:52 with
  | F.Driver.Pass -> ()
  | F.Driver.Fail r -> Alcotest.failf "seed 52 regressed: %s" r
  | F.Driver.Skip r -> Alcotest.failf "seed 52 reference broke: %s" r

(* The driver's oracle sequence before it shared its runs: the reference
   interpreted and discarded, the stage preparing for itself, the
   verifier against a second [prepare], [check_many] re-running the
   reference, and the VLIW check re-interpreting the candidate.  Kept
   here as the oracle for [Driver.run_prog], which must give the same
   verdicts. *)
let run_prog_unshared (check_ : F.Driver.check) (stage : F.Stage.t) prog
    inputs =
  let module Sim = Cpr_sim in
  match Validate.check prog with
  | e :: _ ->
    F.Driver.Skip (Format.asprintf "reference invalid: %a" Validate.pp_error e)
  | [] -> (
    match
      List.iter
        (fun input -> ignore (Sim.Equiv.run_on prog input : Sim.Interp.outcome))
        inputs
    with
    | exception Sim.Interp.Stuck msg ->
      F.Driver.Skip ("reference stuck: " ^ msg)
    | () -> (
      match stage.F.Stage.apply prog inputs with
      | exception e ->
        F.Driver.Fail ("transform raised: " ^ Printexc.to_string e)
      | candidate -> (
        F.Fault.inject_opt check_.F.Driver.fault candidate;
        match Validate.check candidate with
        | e :: _ ->
          F.Driver.Fail (Format.asprintf "validation: %a" Validate.pp_error e)
        | [] -> (
          let findings =
            if not check_.F.Driver.verify then []
            else
              let before =
                if stage.F.Stage.name = "superblock" then Prog.copy prog
                else Cpr_pipeline.Passes.prepare prog inputs
              in
              Cpr_verify.Verify.errors
                (Cpr_verify.Verify.check_stage ~stage:stage.F.Stage.name
                   ~before candidate)
          in
          match findings with
          | f :: _ ->
            F.Driver.Fail (Format.asprintf "verify: %a" Cpr_verify.Finding.pp f)
          | [] -> (
            match Sim.Equiv.check_many prog candidate inputs with
            | Error e -> F.Driver.Fail ("equivalence: " ^ e)
            | Ok () ->
              if not check_.F.Driver.vliw then F.Driver.Pass
              else (
                match
                  Sim.Vliw.check_against_interp Cpr_machine.Descr.medium
                    candidate inputs
                with
                | Ok () -> F.Driver.Pass
                | Error e -> F.Driver.Fail ("vliw: " ^ e)))))))

let verdict = function
  | F.Driver.Pass -> "pass"
  | F.Driver.Fail r -> "fail: " ^ r
  | F.Driver.Skip r -> "skip: " ^ r

(* Seeds 0..150, every stage, with and without each fault, with and
   without the static verifier: sharing runs and [prepare] changes no
   verdict, failures included. *)
let shared_runs_same_verdicts () =
  let fails = ref 0 in
  List.iter
    (fun verify ->
      List.iter
        (fun fault ->
          let check_ = { F.Driver.default_check with F.Driver.fault; verify } in
          for seed = 0 to 150 do
            let prog = W.Gen.prog_of_seed seed in
            let inputs = F.Driver.inputs_for check_ seed in
            List.iter
              (fun (stage : F.Stage.t) ->
                let expected =
                  verdict (run_prog_unshared check_ stage prog inputs)
                in
                if expected <> "pass" then incr fails;
                check Alcotest.string
                  (Printf.sprintf "seed %d %s fault %s verify %b" seed
                     stage.F.Stage.name
                     (Option.fold ~none:"none" ~some:F.Fault.name fault)
                     verify)
                  expected
                  (verdict (F.Driver.run_prog check_ stage prog inputs)))
              F.Stage.all
          done)
        (None :: List.map Option.some F.Fault.all))
    [ false; true ];
  checkb "the faults produce failures" true (!fails > 0)

let suite =
  ( "fuzz",
    [
      case "corpus replays clean" corpus_replays_clean;
      case "corpus round-trips" corpus_round_trips;
      case "determinism" determinism;
      case "faults are caught" faults_are_caught;
      case "seed 52 fullpipe regression" seed_52_fullpipe;
      case "shared runs give the unshared verdicts" shared_runs_same_verdicts;
    ] )

open Cpr_ir
module W = Cpr_workloads
module Obs = Cpr_obs.Obs

(* Fuzzing telemetry: one [fuzz/seed] span per seed (nesting the
   per-stage pipeline spans beneath it), plus outcome counters.  Dark
   unless a [--trace] sink enabled Cpr_obs. *)
let c_seeds = Obs.counter "fuzz.seeds"
let c_pass = Obs.counter "fuzz.pass"
let c_fail = Obs.counter "fuzz.fail"
let c_skip = Obs.counter "fuzz.skip"

let observe_outcome = function
  | `Pass -> Obs.incr c_pass
  | `Fail -> Obs.incr c_fail
  | `Skip -> Obs.incr c_skip

type check = {
  vliw : bool;
  extra_inputs : int;
  fault : Fault.t option;
  verify : bool;
}

let default_check =
  { vliw = true; extra_inputs = 2; fault = None; verify = false }

type outcome =
  | Pass
  | Fail of string
  | Skip of string

let inputs_for check seed =
  W.Gen.inputs_of_seed seed
  @ List.init check.extra_inputs (fun k ->
        W.Gen.input_of_seed seed ~seed:(seed + ((k + 5) * 101)))

(* The reference's own runs, one per input: made once, they are the
   reference side of the equivalence oracle. *)
let reference_ok prog inputs =
  match Validate.check prog with
  | e :: _ ->
    Error (Format.asprintf "reference invalid: %a" Validate.pp_error e)
  | [] -> (
    match List.map (Cpr_sim.Equiv.run_on prog) inputs with
    | outcomes -> Ok outcomes
    | exception Cpr_sim.Interp.Stuck msg -> Error ("reference stuck: " ^ msg))

(* {!Cpr_sim.Equiv.check_many} against the reference runs already made:
   only the candidate is interpreted, input by input, stopping at the
   first difference.  The candidate's runs are the VLIW oracle's
   reference. *)
let candidate_runs prog ref_outs candidate inputs =
  List.fold_left2
    (fun acc input ref_out ->
      Result.bind acc (fun outs ->
          match Cpr_sim.Equiv.run_on candidate input with
          | exception Cpr_sim.Interp.Stuck msg ->
            Error ("interpreter stuck: " ^ msg)
          | out ->
            Result.map
              (fun () -> out :: outs)
              (Cpr_sim.Equiv.compare_outcomes prog ref_out out)))
    (Ok []) inputs ref_outs
  |> Result.map List.rev

(* Each result is built once and handed to every oracle that needs it:
   the reference runs to equivalence, the candidate runs to the VLIW
   check, and (under [verify]) one [prepare] to both the stage and the
   verifier.  Superblock formation is [prepare] itself, so that stage is
   verified against the raw program instead. *)
let run_prog check (stage : Stage.t) prog inputs =
  match reference_ok prog inputs with
  | Error msg -> Skip msg
  | Ok ref_outs -> (
    match
      let prepared =
        if check.verify && stage.Stage.name <> "superblock" then
          Some (Cpr_pipeline.Passes.prepare prog inputs)
        else None
      in
      (prepared, stage.Stage.apply ?prepared prog inputs)
    with
    | exception e -> Fail ("transform raised: " ^ Printexc.to_string e)
    | prepared, candidate -> (
      Fault.inject_opt check.fault candidate;
      match Validate.check candidate with
      | e :: _ -> Fail (Format.asprintf "validation: %a" Validate.pp_error e)
      | [] -> (
        let findings =
          if not check.verify then []
          else
            let before =
              match prepared with Some p -> p | None -> Prog.copy prog
            in
            Cpr_verify.Verify.errors
              (Cpr_verify.Verify.check_stage ~stage:stage.Stage.name ~before
                 candidate)
        in
        match findings with
        | f :: _ -> Fail (Format.asprintf "verify: %a" Cpr_verify.Finding.pp f)
        | [] -> (
          match candidate_runs prog ref_outs candidate inputs with
          | Error e -> Fail ("equivalence: " ^ e)
          | Ok cand_outs -> (
            if not check.vliw then Pass
            else
              match
                Cpr_sim.Vliw.check_outcomes Cpr_machine.Descr.medium candidate
                  inputs cand_outs
              with
              | Ok () -> Pass
              | Error e -> Fail ("vliw: " ^ e))))))

let run_stage check stage ~seed =
  let outcome =
    Obs.span
      ~args:[ ("seed", string_of_int seed) ]
      ("fuzz/" ^ stage.Stage.name)
      (fun () ->
        run_prog check stage (W.Gen.prog_of_seed seed) (inputs_for check seed))
  in
  observe_outcome
    (match outcome with Pass -> `Pass | Fail _ -> `Fail | Skip _ -> `Skip);
  outcome

(* One task per seed (running all its stages) keeps tasks coarse enough
   to amortize pool hand-off; results come back in seed order, so the
   caller's accounting and FAIL output are independent of the domain
   count.  Shrinking stays with the caller: it is rare, highly stateful,
   and its step count is part of the reproducer's identity. *)
let run_seeds ?pool check stages ~lo ~hi =
  let seeds = List.init (max 0 (hi - lo)) (fun k -> lo + k) in
  let one seed =
    Obs.span ~args:[ ("seed", string_of_int seed) ] "fuzz/seed" @@ fun () ->
    Obs.incr c_seeds;
    ( seed,
      List.map (fun stage -> (stage, run_stage check stage ~seed)) stages )
  in
  match pool with
  | Some p -> Cpr_par.Pool.map p one seeds
  | None -> List.map one seeds

(* ------------------------------------------------------------------ *)

type tally = {
  mutable runs : int;
  mutable fails : int;
  mutable skips : int;
}

type summary = {
  tallies : (string * tally) list;
  mutable seeds : int;
  mutable failures : (int * string * string) list;
}

let new_summary stages =
  {
    tallies =
      List.map
        (fun (s : Stage.t) -> (s.Stage.name, { runs = 0; fails = 0; skips = 0 }))
        stages;
    seeds = 0;
    failures = [];
  }

let record summary (stage : Stage.t) ~seed outcome =
  let t = List.assoc stage.Stage.name summary.tallies in
  t.runs <- t.runs + 1;
  match outcome with
  | Pass -> ()
  | Skip _ -> t.skips <- t.skips + 1
  | Fail reason ->
    t.fails <- t.fails + 1;
    summary.failures <- (seed, stage.Stage.name, reason) :: summary.failures

let pp_summary ppf summary =
  Format.fprintf ppf "%-12s%8s%8s%8s%8s%9s@." "stage" "runs" "pass" "fail"
    "skip" "fail%";
  List.iter
    (fun (name, t) ->
      if t.runs > 0 then
        Format.fprintf ppf "%-12s%8d%8d%8d%8d%9.2f@." name t.runs
          (t.runs - t.fails - t.skips)
          t.fails t.skips
          (100. *. float_of_int t.fails /. float_of_int t.runs))
    summary.tallies;
  let total_runs =
    List.fold_left (fun acc (_, t) -> acc + t.runs) 0 summary.tallies
  in
  let total_fails =
    List.fold_left (fun acc (_, t) -> acc + t.fails) 0 summary.tallies
  in
  Format.fprintf ppf "programs %d, stage runs %d, failures %d@." summary.seeds
    total_runs total_fails;
  List.iter
    (fun (seed, stage, reason) ->
      Format.fprintf ppf "FAIL seed %d stage %s: %s@." seed stage reason)
    (List.rev summary.failures)

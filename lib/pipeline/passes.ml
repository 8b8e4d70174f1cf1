open Cpr_ir
module Obs = Cpr_obs.Obs
module Chaos = Cpr_resilience.Chaos
module Recover = Cpr_resilience.Recover
module Deadline = Cpr_deadline.Deadline

type compiled = {
  prog : Prog.t;
  icbm : Cpr_core.Icbm.region_stats option;
  outcomes : Cpr_sim.Interp.outcome list option;
}

let c_regions_formed = Obs.counter "superblock.regions_formed"
let c_branches_bypassed = Obs.counter "icbm.branches_bypassed"
let c_comp_ops = Obs.counter "icbm.compensation_ops"
let c_blocks_transformed = Obs.counter "icbm.blocks_transformed"
let c_blocks_demoted = Obs.counter "icbm.blocks_demoted"
let c_profiled = Obs.counter "profile.input_sets"

(* Wrap one pipeline entry point in a span, recording program size on
   the way in and out ("ops in/out per pass").  The counts are only
   computed when a telemetry sink is listening. *)
let with_pass ~stage input f =
  (* Cooperative cancellation point: a pooled caller running past its
     budget unwinds here rather than starting another pass. *)
  Deadline.check_current ();
  Obs.span ("pass/" ^ stage) (fun () ->
      let ops_in =
        if Obs.enabled () then Prog.static_op_count input else 0
      in
      let compiled = f () in
      if Obs.enabled () then begin
        Obs.add (Obs.counter ("pass." ^ stage ^ ".ops_in")) ops_in;
        Obs.add
          (Obs.counter ("pass." ^ stage ^ ".ops_out"))
          (Prog.static_op_count compiled.prog)
      end;
      compiled)

(* Call after the transformed program has been re-profiled: "branches
   bypassed" is the drop in dynamic branch count (off-trace motion keeps
   branches in the text, so the static count barely moves — the paper's
   D-br column is the honest measure). *)
let record_icbm before (stats : Cpr_core.Icbm.region_stats) after =
  if Obs.enabled () then begin
    Obs.add c_blocks_transformed stats.Cpr_core.Icbm.blocks_transformed;
    Obs.add c_blocks_demoted stats.Cpr_core.Icbm.blocks_demoted;
    Obs.add c_comp_ops
      (stats.Cpr_core.Icbm.ops_moved + stats.Cpr_core.Icbm.ops_split);
    let branches p = (Stats_ir.of_prog p).Stats_ir.dynamic_branches in
    Obs.add c_branches_bypassed (max 0 (branches before - branches after))
  end

(* The outcomes are kept: they are the runs the equivalence oracle
   compares, so no input set is interpreted twice for the same
   program. *)
let profile_outcomes prog inputs =
  Obs.span "profile" (fun () ->
      Obs.incr c_profiled;
      Prog.clear_profile prog;
      List.map (Cpr_sim.Equiv.run_on ~profile:true prog) inputs)

let profile prog inputs = ignore (profile_outcomes prog inputs : _ list)

(* Both compiled codes start from the same superblock formation — the
   paper's baseline is "optimized superblock code produced by the IMPACT
   compiler", not the raw region graph. *)
let prepare_profiled prog inputs =
  Obs.span "pass/prepare" (fun () ->
      (* Program boundary: trim the predicate engine's arena and memo
         tables so a long suite/fuzz run's footprint stays bounded by
         one program's working set, not the whole run. *)
      Cpr_analysis.Pqs.trim ();
      let p = Prog.copy prog in
      profile p inputs;
      let formed = Cpr_core.Superblock.form p in
      Obs.add c_regions_formed formed;
      let (_ : int) = Cpr_core.Superblock.prune_unreachable p in
      Validate.check_exn p;
      (p, profile_outcomes p inputs))

let prepare prog inputs = fst (prepare_profiled prog inputs)

(* Static verification of one transformation step: raises
   {!Cpr_verify.Verify.Verify_error} on any error-severity finding.  The
   whole check runs inside a [verify/<stage>] span; the [verify_time]
   ref keeps the pre-span accounting contract (the <10%-of-suite budget
   the bench harness tracks) for callers that do not read traces. *)
let verify_stage ?(verify = true) ?verify_time ~stage ~before p =
  if verify then
    Obs.span ("verify/" ^ stage) (fun () ->
        let t0 = Unix.gettimeofday () in
        (* Superblock formation lays out traces without reordering ops,
           so the schedule-hazard re-derivation cannot find anything the
           transformed stages would not also see; skip it there. *)
        let sched = stage <> "superblock" in
        Cpr_verify.Verify.check_stage_exn ~sched ~stage ~before p;
        match verify_time with
        | Some r -> r := !r +. (Unix.gettimeofday () -. t0)
        | None -> ())

(* The stage table: the one place a stage name maps to a transform.
   Each transform works in place on a prepared copy and returns ICBM's
   statistics when it ran ICBM.  [heur] only reaches ICBM. *)
type stage = {
  name : string;
  descr : string;
  transform : Cpr_core.Heur.t -> Prog.t -> Cpr_core.Icbm.region_stats option;
}

let stages =
  [
    {
      name = "superblock";
      descr = "profile-guided superblock formation (tail duplication)";
      transform = (fun _ _ -> None);
    };
    {
      name = "ifconv";
      descr = "classic if-conversion of unbiased side exits";
      transform =
        (fun _ p ->
          let (_ : Cpr_core.Ifconv.stats) = Cpr_core.Ifconv.convert p in
          None);
    };
    {
      name = "frp";
      descr = "fully-resolved-predicate conversion";
      transform =
        (fun _ p ->
          let (_ : int) = Cpr_core.Frp.convert p in
          None);
    };
    {
      name = "spec";
      descr = "FRP conversion + predicate speculation";
      transform =
        (fun _ p ->
          let (_ : int) = Cpr_core.Frp.convert p in
          let (_ : Cpr_core.Spec.stats) = Cpr_core.Spec.speculate p in
          None);
    };
    {
      name = "unroll";
      descr = "superblock loop unrolling (factor 2)";
      transform =
        (fun _ p ->
          List.iter
            (fun r ->
              if Cpr_core.Unroll.unrollable p r then
                ignore (Cpr_core.Unroll.unroll_region p r ~factor:2 : bool))
            (Prog.regions p);
          None);
    };
    {
      name = "fullcpr";
      descr = "full (redundant) CPR after Schlansker & Kathail";
      transform =
        (fun _ p ->
          List.iter
            (fun r ->
              if Cpr_core.Frp.convert_region p r then begin
                let (_ : Cpr_core.Spec.stats) =
                  Cpr_core.Spec.speculate_region p r
                in
                ignore (Cpr_core.Fullcpr.transform_region p r : bool)
              end)
            (Prog.regions p);
          None);
    };
    {
      name = "icbm";
      descr = "the ICBM schema (speculate, match, restructure, off-trace)";
      transform = (fun heur p -> Some (Cpr_core.Icbm.run ~heur p));
    };
  ]

let stage_names = List.map (fun s -> s.name) stages
let find_stage name = List.find_opt (fun s -> s.name = name) stages

(* The one skeleton every stage runs through.  Superblock formation is
   [prepare] itself, so that row is the special case: it traces as
   [pass/baseline], its chaos point sees the prepared program, it is
   verified against the raw input, and its outcomes are [prepare]'s
   last profile.  Every other stage transforms a copy of the prepared
   program (or of [prepared], which is left untouched). *)
let run ?(heur = Cpr_core.Heur.default) ?verify ?verify_time ?prepared stage
    prog inputs =
  if stage.name = "superblock" then
    with_pass ~stage:"baseline" prog (fun () ->
        let p, outcomes = prepare_profiled prog inputs in
        Chaos.trip ~stage:stage.name p;
        verify_stage ?verify ?verify_time ~stage:stage.name ~before:prog p;
        { prog = p; icbm = None; outcomes = Some outcomes })
  else
    with_pass ~stage:stage.name prog (fun () ->
        let before =
          match prepared with Some p -> p | None -> prepare prog inputs
        in
        let p = Prog.copy before in
        let icbm = stage.transform heur p in
        (* Chaos injection point: fires only when the chaos harness armed
           this stage on this domain; a no-op in production.  Placed
           after the transform and before validation so a [Corrupt] fault
           exercises exactly the detection path (validate -> verify ->
           fallback) a real miscompile would take. *)
        Chaos.trip ~stage:stage.name p;
        Validate.check_exn p;
        verify_stage ?verify ?verify_time ~stage:stage.name ~before p;
        let outcomes = profile_outcomes p inputs in
        Option.iter (fun stats -> record_icbm before stats p) icbm;
        { prog = p; icbm; outcomes = Some outcomes })

let stage_exn name =
  match find_stage name with
  | Some s -> s
  | None -> invalid_arg ("Passes: unknown stage " ^ name)

let baseline ?verify ?verify_time prog inputs =
  run ?verify ?verify_time (stage_exn "superblock") prog inputs

let height_reduce ?heur ?verify ?verify_time ?prepared prog inputs =
  run ?heur ?verify ?verify_time ?prepared (stage_exn "icbm") prog inputs

type entry =
  ?verify:bool ->
  ?verify_time:float ref ->
  Prog.t ->
  Cpr_sim.Equiv.input list ->
  compiled

let by_name name : entry option =
  Option.map
    (fun s ?verify ?verify_time p i -> run ?verify ?verify_time s p i)
    (find_stage name)

(* The verified fallback: a plain copy of the pre-pass IR, the last
   program known good.  Never a partially transformed working copy —
   passes mutate in place, so mid-pass state may violate invariants the
   rest of the pipeline relies on, while the input was validated on the
   way in.  Must be infallible ({!Recover.protect} does not sandbox the
   fallback), hence the best-effort profile. *)
let fallback_compiled prog inputs =
  let p = Prog.copy prog in
  (try profile p inputs with _ -> Prog.clear_profile p);
  { prog = p; icbm = None; outcomes = None }

let protected ?verify ?verify_time ?(retries = 1) ?bundle_dir ?machine
    ?prepared ~stage prog inputs =
  let st = stage_exn stage in
  let on_failure =
    Option.map
      (fun dir fail -> Recover.bundle_to ~dir ?machine ~inputs prog fail)
      bundle_dir
  in
  Recover.protect ~retries ?on_failure ~stage
    ~fallback:(fun () -> fallback_compiled prog inputs)
    (fun () -> run ?verify ?verify_time ?prepared st prog inputs)

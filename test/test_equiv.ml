(* The interpreter state and the equivalence oracle: dense register
   files against a hash-table model of the original semantics, and
   Equiv.check_outcomes (comparing runs the profiler already made)
   against Equiv.check_many (running both programs again) on the
   workloads, the fuzz corpus and one mutant per failure kind. *)

open Cpr_ir
module Sim = Cpr_sim
module P = Cpr_pipeline
open Helpers

(* ------------------------------------------------------------------ *)
(* Dense state                                                         *)

(* Ids on both sides of every boundary the dense files have: negative,
   the first slots, around each growth step and the dense cap, and far
   beyond it. *)
let ids =
  [ -1_000_000; -3; -1; 0; 1; 15; 16; 17; 255; 256; 4095; 4096; 4097;
    99_999; 1_000_000; max_int ]

(* The original state: one [Reg.Tbl] per file, unwritten reads default
   to 0 / false / None. *)
let model_matches_dense () =
  let gprs = Reg.Tbl.create 8 and preds = Reg.Tbl.create 8
  and btrs = Reg.Tbl.create 8 in
  let st = Sim.State.create () in
  let agree what =
    List.iter
      (fun id ->
        let g = Reg.gpr id and p = Reg.pred id and b = Reg.btr id in
        let msg = Printf.sprintf "%s: id %d" what id in
        checki msg
          (Option.value ~default:0 (Reg.Tbl.find_opt gprs g))
          (Sim.State.read_gpr st g);
        checkb msg
          (Option.value ~default:false (Reg.Tbl.find_opt preds p))
          (Sim.State.read_pred st p);
        check
          Alcotest.(option string)
          msg (Reg.Tbl.find_opt btrs b) (Sim.State.read_btr st b))
      ids
  in
  agree "fresh state";
  (* A deterministic walk over the ids, writing every file. *)
  let seed = ref 12345 in
  for step = 1 to 400 do
    seed := Cpr_workloads.Kernels.lcg !seed;
    let id = List.nth ids (abs !seed mod List.length ids) in
    let v = (!seed lsr 7) mod 1000 in
    (match step mod 3 with
    | 0 ->
      Reg.Tbl.replace gprs (Reg.gpr id) v;
      Sim.State.write_gpr st (Reg.gpr id) v
    | 1 ->
      Reg.Tbl.replace preds (Reg.pred id) (v land 1 = 0);
      Sim.State.write_pred st (Reg.pred id) (v land 1 = 0)
    | _ ->
      let l = "L" ^ string_of_int v in
      Reg.Tbl.replace btrs (Reg.btr id) l;
      Sim.State.write_btr st (Reg.btr id) l);
    if step mod 50 = 0 then agree (Printf.sprintf "after %d writes" step)
  done

let huge_ids_text =
  {|program entry Main
exits Exit
liveout r1000000 r-3 r1
region Main fallthrough Exit
  1. r1000000 = mov(0, 7) if T
  2. r-3 = add(r1000000, 5) if T
  3. p70000 = cmpp.un.gt(r-3, 1) if T
  4. r1 = add(r99999, 1) if p70000
  5. store(r1000000, 100, r-3) if T
  6. b4097 = pbr(Exit, 0) if T
  7. branch(b4097) if p70000
endregion
|}

(* The same program with every register renamed into the first slots:
   the interpreter must not care which ids a program uses. *)
let small_ids_text =
  {|program entry Main
exits Exit
liveout r2 r3 r1
region Main fallthrough Exit
  1. r2 = mov(0, 7) if T
  2. r3 = add(r2, 5) if T
  3. p1 = cmpp.un.gt(r3, 1) if T
  4. r1 = add(r4, 1) if p1
  5. store(r2, 100, r3) if T
  6. b1 = pbr(Exit, 0) if T
  7. branch(b1) if p1
endregion
|}

let huge_register_ids () =
  let big = Parser_.of_text huge_ids_text and small = Parser_.of_text small_ids_text in
  let before = Gc.allocated_bytes () in
  let out = Sim.Equiv.run_on big Sim.Equiv.no_input in
  (* A dense array up to r1000000 alone would be 8 MB. *)
  checkb "no array sized by the largest id" true
    (Gc.allocated_bytes () -. before < 1_000_000.);
  let ref_out = Sim.Equiv.run_on small Sim.Equiv.no_input in
  let st = out.Sim.Interp.state and rst = ref_out.Sim.Interp.state in
  check Alcotest.(option string) "exit" ref_out.Sim.Interp.exit_label
    out.Sim.Interp.exit_label;
  check
    Alcotest.(list (pair int int))
    "memory" (Sim.State.memory_snapshot rst) (Sim.State.memory_snapshot st);
  check
    Alcotest.(list (pair int int))
    "stores" (Sim.State.store_trace rst) (Sim.State.store_trace st);
  List.iter2
    (fun b s ->
      checki (Reg.to_string b) (Sim.State.read_gpr rst s)
        (Sim.State.read_gpr st b))
    (List.map Reg.gpr [ 1_000_000; -3; 1; 99_999 ])
    (List.map Reg.gpr [ 2; 3; 1; 4 ]);
  checki "r1 read the unwritten r99999 as 0" 1
    (Sim.State.read_gpr st (Reg.gpr 1));
  checki "r-3" 12 (Sim.State.read_gpr st (Reg.gpr (-3)));
  checkb "p70000 written" true (Sim.State.read_pred st (Reg.pred 70000));
  check Alcotest.(option string) "b4097 written" (Some "Exit")
    (Sim.State.read_btr st (Reg.btr 4097))

(* ------------------------------------------------------------------ *)
(* check_outcomes = check_many                                         *)

let result = Alcotest.(result unit string)

(* Both oracles on a reference and a candidate that were profiled (the
   outcomes are those runs); returns the shared verdict. *)
let both_oracles ~msg reference ref_outs candidate cand_outs inputs =
  let many = Sim.Equiv.check_many reference candidate inputs in
  check result msg many
    (Sim.Equiv.check_outcomes reference ref_outs cand_outs);
  many

let outcomes (c : P.Passes.compiled) =
  match c.P.Passes.outcomes with
  | Some o -> o
  | None -> Alcotest.fail "a committed stage carries its profiling outcomes"

let workloads_agree () =
  List.iter
    (fun (w : Cpr_workloads.Workload.t) ->
      let prog = w.Cpr_workloads.Workload.build () in
      let inputs = w.Cpr_workloads.Workload.inputs () in
      let base = P.Passes.baseline prog inputs in
      let red =
        P.Passes.height_reduce ~prepared:base.P.Passes.prog prog inputs
      in
      let v =
        both_oracles ~msg:w.Cpr_workloads.Workload.name base.P.Passes.prog
          (outcomes base) red.P.Passes.prog (outcomes red) inputs
      in
      check result (w.Cpr_workloads.Workload.name ^ " equivalent") (Ok ()) v)
    Cpr_workloads.Registry.all

let corpus_agrees () =
  let entries =
    List.filter_map
      (fun (_, e) -> Result.to_option e)
      (Cpr_fuzz.Corpus.load_dir "corpus")
  in
  checkb "corpus loaded" true (entries <> []);
  List.iter
    (fun (e : Cpr_fuzz.Corpus.entry) ->
      let inputs =
        if e.Cpr_fuzz.Corpus.inputs = [] then [ Sim.Equiv.no_input ]
        else e.Cpr_fuzz.Corpus.inputs
      in
      let prog = e.Cpr_fuzz.Corpus.prog in
      let raw = P.Passes.profile_outcomes (Prog.copy prog) inputs in
      List.iter
        (fun stage ->
          let run = Option.get (P.Passes.by_name stage) in
          let c = run prog inputs in
          ignore
            (both_oracles
               ~msg:(Filename.basename e.Cpr_fuzz.Corpus.path ^ " " ^ stage)
               prog raw c.P.Passes.prog (outcomes c) inputs
              : (unit, string) result))
        P.Passes.stage_names)
    entries

(* One reference and one mutant per failure kind the oracle reports,
   plus a reordering it must accept. *)
let reference_text =
  {|program entry Main
exits Exit Other
liveout r2
region Main fallthrough Exit
  1. r1 = mov(0, 5) if T
  2. store(0, 100, r1) if T
  3. store(0, 100, 7) if T
  4. store(0, 200, 8) if T
  5. store(0, 100, 7) if T
  6. r2 = load(0, 100) if T
endregion
|}

let mutants =
  [
    ("exit label", [ ("fallthrough Exit", "fallthrough Other") ],
     Some "exit labels differ: Exit vs Other");
    ("memory cell", [ ("store(0, 200, 8)", "store(0, 200, 9)") ],
     Some "final memories differ");
    ( "same-address store order",
      [ ("2. store(0, 100, r1)", "2. store(0, 100, 7)");
        ("3. store(0, 100, 7)", "3. store(0, 100, r1)") ],
      Some "store sequences differ" );
    ( "different-address store order",
      [ ("3. store(0, 100, 7)", "3. store(0, 200, 8)");
        ("4. store(0, 200, 8)", "4. store(0, 100, 7)") ],
      None );
    ("live-out gpr", [ ("6. r2 = load(0, 100)", "6. r2 = load(0, 200)") ],
     Some "live-out register r2 differs");
  ]

let replace_once s (a, b) =
  let la = String.length a in
  let rec find i =
    if i + la > String.length s then Alcotest.failf "mutation %S not found" a
    else if String.sub s i la = a then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ b ^ String.sub s (i + la) (String.length s - i - la)

let mutants_agree () =
  let reference = Parser_.of_text reference_text in
  let inputs = [ Sim.Equiv.no_input; Sim.Equiv.input_of_memory [ (100, 3) ] ] in
  let ref_outs = P.Passes.profile_outcomes reference inputs in
  List.iter
    (fun (kind, edits, expected) ->
      let mutant = Parser_.of_text (List.fold_left replace_once reference_text edits) in
      let outs = P.Passes.profile_outcomes mutant inputs in
      let v = both_oracles ~msg:kind reference ref_outs mutant outs inputs in
      check result (kind ^ " verdict")
        (match expected with None -> Ok () | Some e -> Error e)
        v)
    mutants

let suite =
  ( "equivalence",
    [
      case "dense state matches the table model" model_matches_dense;
      case "huge and negative register ids" huge_register_ids;
      case "check_outcomes = check_many on workloads" workloads_agree;
      case "check_outcomes = check_many on the corpus" corpus_agrees;
      case "check_outcomes = check_many on mutants" mutants_agree;
    ] )

open Cpr_analysis
open Helpers

let l1 = Pqs.cond_lit 1
let l2 = Pqs.cond_lit 2
let not_ = Pqs.not_
let ( &&& ) = Pqs.and_
let ( ||| ) = Pqs.or_

let constants () =
  checkb "true" true (Pqs.is_const_true Pqs.tru);
  checkb "false" true (Pqs.is_const_false Pqs.fls);
  checkb "const true" true (Pqs.is_const_true (Pqs.const true));
  checkb "and with false" true (Pqs.is_const_false (l1 &&& Pqs.fls));
  checkb "or with true" true (Pqs.is_const_true (l1 ||| Pqs.tru));
  checkb "unknown poisons" true (Pqs.is_unknown (l1 &&& Pqs.unknown))

let contradiction_and_negation () =
  checkb "x & ~x = false" true (Pqs.is_const_false (l1 &&& not_ l1));
  checkb "~~x = x syntactically implies both ways" true
    (Pqs.implies (not_ (not_ l1)) l1 && Pqs.implies l1 (not_ (not_ l1)));
  checkb "x | ~x is not reduced but implied by true only via eval" true
    (Pqs.eval (fun _ -> true) (l1 ||| not_ l1) = Some true)

let disjointness () =
  checkb "complementary literals" true (Pqs.disjoint l1 (not_ l1));
  checkb "independent literals not provably disjoint" false
    (Pqs.disjoint l1 l2);
  checkb "conjunction extension stays disjoint" true
    (Pqs.disjoint (l1 &&& l2) (not_ l1 &&& l2));
  checkb "or distributes over disjointness" true
    (Pqs.disjoint (l1 ||| (l1 &&& l2)) (not_ l1));
  checkb "false disjoint from anything" true (Pqs.disjoint Pqs.fls l1);
  checkb "unknown never disjoint" false (Pqs.disjoint Pqs.unknown Pqs.fls);
  (* FRP pattern: block predicates vs the taken predicate of an earlier
     branch (the property that lets the scheduler overlap branches) *)
  let taken1 = l1 in
  let fall1 = not_ l1 in
  let taken2 = fall1 &&& l2 in
  let fall2 = fall1 &&& not_ l2 in
  checkb "taken1 # taken2" true (Pqs.disjoint taken1 taken2);
  checkb "taken1 # fall2" true (Pqs.disjoint taken1 fall2);
  checkb "taken2 # fall2" true (Pqs.disjoint taken2 fall2);
  checkb "fall1 not # taken2" false (Pqs.disjoint fall1 taken2)

let implication () =
  checkb "conj implies its part" true (Pqs.implies (l1 &&& l2) l1);
  checkb "part does not imply conj" false (Pqs.implies l1 (l1 &&& l2));
  checkb "or implies only if all branches do" false
    (Pqs.implies (l1 ||| l2) l1);
  checkb "both branches imply" true (Pqs.implies ((l1 &&& l2) ||| l1) l1);
  checkb "false implies anything" true (Pqs.implies Pqs.fls l2);
  checkb "anything implies true" true (Pqs.implies (l1 &&& not_ l2) Pqs.tru);
  checkb "unknown implies nothing" false (Pqs.implies Pqs.unknown Pqs.tru)

let entry_literals () =
  let p = Pqs.entry_lit (Cpr_ir.Reg.pred 4) in
  checkb "p # ~p" true (Pqs.disjoint p (not_ p));
  checkb "entry and cond literals independent" false (Pqs.disjoint p l1)

(* --- property tests: syntactic answers are sound w.r.t. brute force --- *)

(* random expression trees over 4 condition literals *)
let gen_expr =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           if n = 0 then
             oneof
               [
                 return Pqs.tru;
                 return Pqs.fls;
                 map (fun i -> Pqs.cond_lit (i mod 4)) small_nat;
                 map (fun i -> Pqs.not_ (Pqs.cond_lit (i mod 4))) small_nat;
               ]
           else
             oneof
               [
                 map2 Pqs.and_ (self (n / 2)) (self (n / 2));
                 map2 Pqs.or_ (self (n / 2)) (self (n / 2));
                 map Pqs.not_ (self (n - 1));
               ]))

let all_assignments keys =
  let keys = List.sort_uniq compare keys in
  let rec go = function
    | [] -> [ (fun _ -> false) ]
    | k :: rest ->
      List.concat_map
        (fun f -> [ (fun q -> if q = k then false else f q);
                    (fun q -> if q = k then true else f q) ])
        (go rest)
  in
  go keys

let semantically agg f a b =
  let keys = Pqs.keys a @ Pqs.keys b in
  agg
    (fun assign ->
      match (Pqs.eval assign a, Pqs.eval assign b) with
      | Some va, Some vb -> f va vb
      | _ -> true)
    (all_assignments keys)

let prop_disjoint_sound =
  QCheck2.Test.make ~name:"disjoint answers are sound" ~count:300
    QCheck2.Gen.(pair gen_expr gen_expr)
    (fun (a, b) ->
      (not (Pqs.disjoint a b))
      || semantically List.for_all (fun va vb -> not (va && vb)) a b)

let prop_implies_sound =
  QCheck2.Test.make ~name:"implies answers are sound" ~count:300
    QCheck2.Gen.(pair gen_expr gen_expr)
    (fun (a, b) ->
      (not (Pqs.implies a b))
      || semantically List.for_all (fun va vb -> (not va) || vb) a b)

let prop_eval_homomorphic =
  QCheck2.Test.make ~name:"and/or/not evaluate pointwise" ~count:300
    QCheck2.Gen.(pair gen_expr gen_expr)
    (fun (a, b) ->
      let keys = Pqs.keys a @ Pqs.keys b in
      List.for_all
        (fun assign ->
          match
            ( Pqs.eval assign a,
              Pqs.eval assign b,
              Pqs.eval assign (Pqs.and_ a b),
              Pqs.eval assign (Pqs.or_ a b),
              Pqs.eval assign (Pqs.not_ a) )
          with
          | Some va, Some vb, Some vand, Some vor, Some vnot ->
            vand = (va && vb) && vor = (va || vb) && vnot = not va
          | _ -> true)
        (all_assignments keys))

(* --- hash-consing layer: sharing, uid shortcuts, invalidation --- *)

let hash_consing () =
  Pqs.invalidate ();
  checkb "same construction interns to one node" true
    (Pqs.equal (l1 &&& l2) (l1 &&& l2));
  checkb "self-implication (uid shortcut)" true
    (Pqs.implies (l1 ||| l2) (l1 ||| l2));
  checkb "satisfiable node not self-disjoint" false
    (Pqs.disjoint (l1 &&& l2) (l1 &&& l2));
  let before = l1 &&& l2 in
  Pqs.invalidate ();
  (* handles are self-contained: an outstanding value stays correct
     across invalidation, it only loses sharing with newer nodes *)
  checkb "outstanding handle answers after invalidate" true
    (Pqs.implies before l1);
  let after = l1 &&& l2 in
  checkb "re-built node structurally equal across generations" true
    (Pqs.to_reference before = Pqs.to_reference after);
  checkb "cross-generation queries still exact" true
    (Pqs.implies before after && Pqs.implies after before)

(* --- the equivalence oracle: hash-consed engine vs Pqs_reference --- *)

module R = Cpr_analysis.Pqs_reference
module RefEnv = Cpr_analysis.Pred_env.Make (Cpr_analysis.Pqs_reference)
module W = Cpr_workloads

(* A neutral expression AST replayed through both engines, so the
   property pins the caching layer itself: identical construction calls
   must yield structurally identical nodes and identical answers. *)
type ast =
  | T
  | F
  | U
  | L of int
  | And of ast * ast
  | Or of ast * ast
  | Not of ast

let oracle_lits = 12

(* The FRP-chain shape of the liveness scan's path conditions: a
   conjunction of negated conjunctions, here over disjoint groups of
   distinct literals with random polarities, so a chain's DNF is the
   product of its group sizes — up to tens of conjunctions. *)
let gen_frp_chain =
  QCheck2.Gen.(
    let* perm = shuffle_l (List.init oracle_lits Fun.id) in
    let* sizes = list_size (int_range 2 5) (int_range 1 3) in
    let* pols = array_repeat oracle_lits bool in
    let lit i = if pols.(i) then L i else Not (L i) in
    let rec groups lits = function
      | [] -> []
      | k :: ks ->
        let g = List.filteri (fun j _ -> j < k) lits in
        if g = [] then []
        else g :: groups (List.filteri (fun j _ -> j >= k) lits) ks
    in
    return
      (List.fold_left
         (fun acc g ->
           And (acc, Not (List.fold_left (fun c i -> And (c, lit i)) T g)))
         T (groups perm sizes)))

(* The shape of a liveness expression: a disjunction of FRP chains.  The
   wider ones cross [max_conjs]. *)
let gen_frp_union =
  QCheck2.Gen.(
    map
      (List.fold_left (fun acc c -> Or (acc, c)) F)
      (list_size (int_range 2 8) gen_frp_chain))

let gen_ast =
  QCheck2.Gen.(
    sized_size (int_bound 6)
    @@ fix (fun self n ->
           if n = 0 then
             frequency
               [
                 (1, return T);
                 (1, return F);
                 (1, return U);
                 (3, map (fun i -> L (i mod oracle_lits)) small_nat);
                 (4, gen_frp_chain);
                 (1, gen_frp_union);
               ]
           else
             frequency
               [
                 ( 3,
                   map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2))
                 );
                 ( 3,
                   map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2))
                 );
                 (1, map (fun a -> Not a) (self (n - 1)));
               ]))

let rec build_hc = function
  | T -> Pqs.tru
  | F -> Pqs.fls
  | U -> Pqs.unknown
  | L i -> Pqs.cond_lit i
  | And (a, b) -> Pqs.and_ (build_hc a) (build_hc b)
  | Or (a, b) -> Pqs.or_ (build_hc a) (build_hc b)
  | Not a -> Pqs.not_ (build_hc a)

let rec build_ref = function
  | T -> R.tru
  | F -> R.fls
  | U -> R.unknown
  | L i -> R.cond_lit i
  | And (a, b) -> R.and_ (build_ref a) (build_ref b)
  | Or (a, b) -> R.or_ (build_ref a) (build_ref b)
  | Not a -> R.not_ (build_ref a)

(* Every assignment of the [oracle_lits] condition literals, as bit
   patterns: cheap enough to enumerate exhaustively at 12 literals. *)
let lit_assignments =
  List.init (1 lsl oracle_lits) (fun bits -> function
    | Pqs.Cond i -> (bits lsr i) land 1 = 1
    | Pqs.Entry _ -> false)

let engines_agree (x, y) =
  let a = build_hc x and b = build_hc y in
  let ra = build_ref x and rb = build_ref y in
  Pqs.to_reference a = ra
  && Pqs.to_reference b = rb
  && Pqs.disjoint a b = R.disjoint ra rb
  && Pqs.implies a b = R.implies ra rb
  && Format.asprintf "%a" Pqs.pp a = Format.asprintf "%a" R.pp ra
  && List.for_all
       (fun assign -> Pqs.eval assign a = R.eval assign ra)
       lit_assignments

let gen_ast_pair = QCheck2.Gen.(pair gen_ast gen_ast)

let prop_engines_agree =
  QCheck2.Test.make ~name:"hash-consed engine agrees with reference"
    ~count:500 gen_ast_pair engines_agree

(* The property above only pins the algebra where its generator goes:
   on a fixed-seed batch of the same size, require that products reach
   tens of conjunctions and that some cross [max_conjs] into [Unknown]
   without an [Unknown] leaf. *)
let oracle_batch_reaches_cap () =
  let rec has_u = function
    | U -> true
    | T | F | L _ -> false
    | And (a, b) | Or (a, b) -> has_u a || has_u b
    | Not a -> has_u a
  in
  let batch =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 15 |]) ~n:500
      gen_ast_pair
  in
  let large = ref 0 and capped = ref 0 in
  List.iter
    (fun (x, y) ->
      if not (engines_agree (x, y)) then
        Alcotest.fail "hash-consed engine diverged from reference";
      List.iter
        (fun e ->
          match Pqs.to_reference (build_hc e) with
          | R.Dnf cs when List.length cs >= 20 -> incr large
          | R.Unknown when not (has_u e) -> incr capped
          | R.Dnf _ | R.Unknown -> ())
        [ x; y ])
    batch;
  checkb
    (Printf.sprintf "%d products reach tens of conjunctions" !large)
    true (!large >= 10);
  checkb (Printf.sprintf "%d products cross max_conjs" !capped) true
    (!capped >= 3)

(* Real programs: run [Pred_env] under both engines over every workload
   and a batch of fuzz programs (raw and ICBM-transformed), and require
   identical guard/path-condition structure and identical query answers
   — the [schedule_reference]-style oracle for the predicate engine. *)
let oracle_region name (r : Cpr_ir.Region.t) =
  let ep = Cpr_analysis.Pred_env.analyze r in
  let er = RefEnv.analyze r in
  let n = Array.length (Cpr_analysis.Pred_env.ops ep) in
  let gp = Array.init n (Cpr_analysis.Pred_env.guard_expr ep) in
  let gr = Array.init n (RefEnv.guard_expr er) in
  for i = 0 to n - 1 do
    if Pqs.to_reference gp.(i) <> gr.(i) then
      Alcotest.failf "%s/%s op %d: guard construction diverged" name
        r.Cpr_ir.Region.label i
  done;
  let pp = Cpr_analysis.Pred_env.path_conds ep in
  let pr = RefEnv.path_conds er in
  Array.iteri
    (fun i p ->
      if Pqs.to_reference p <> pr.(i) then
        Alcotest.failf "%s/%s op %d: path condition diverged" name
          r.Cpr_ir.Region.label i)
    pp;
  (* pairwise queries over a sliding window — the locality the scheduler
     and depgraph builder actually exercise *)
  for i = 0 to n - 1 do
    for j = i + 1 to min (n - 1) (i + 20) do
      if Pqs.disjoint gp.(i) gp.(j) <> R.disjoint gr.(i) gr.(j) then
        Alcotest.failf "%s/%s ops %d,%d: disjoint diverged" name
          r.Cpr_ir.Region.label i j;
      if Pqs.implies gp.(i) gp.(j) <> R.implies gr.(i) gr.(j) then
        Alcotest.failf "%s/%s ops %d,%d: implies diverged" name
          r.Cpr_ir.Region.label i j
    done
  done

let oracle_prog name prog =
  List.iter (oracle_region name) (Cpr_ir.Prog.regions prog)

let engines_agree_on_programs () =
  List.iter
    (fun (w : W.Workload.t) ->
      oracle_prog w.W.Workload.name (w.W.Workload.build ()))
    W.Registry.all;
  (* transformed code is where predicates abound (FRP columns, guarded
     compensation): oracle the ICBM pipeline output of the quick set *)
  List.iter
    (fun name ->
      let w = Option.get (W.Registry.find name) in
      let compiled =
        Cpr_pipeline.Passes.height_reduce ~verify:false
          (w.W.Workload.build ()) (w.W.Workload.inputs ())
      in
      oracle_prog (name ^ "-icbm") compiled.Cpr_pipeline.Passes.prog)
    [ "strcpy"; "grep"; "099.go" ];
  let stage = Option.get (Cpr_fuzz.Stage.find "icbm") in
  for seed = 0 to 59 do
    let name = Printf.sprintf "fuzz-%d" seed in
    oracle_prog name (W.Gen.prog_of_seed seed);
    if seed < 20 then
      oracle_prog (name ^ "-icbm")
        (stage.Cpr_fuzz.Stage.apply (W.Gen.prog_of_seed seed)
           (W.Gen.inputs_of_seed seed))
  done

(* The liveness scan's hot chain, replayed at the scale-large benchmark
   size: on FRP-converted, speculated 32-block regions, every
   [and_ path (not_ taken_j)] chain from every start index must build
   structurally equal nodes under both engines. *)
let scale_shape =
  {
    W.Gen.blocks = 32;
    ops_per_block = 5;
    loop = true;
    stores = true;
    loads = true;
    fp = false;
    exit_stubs = 3;
  }

let path_chains_agree () =
  Pqs.invalidate ();
  for seed = 0 to 2 do
    let prog = W.Gen.prog_of ~shape:scale_shape seed in
    List.iter
      (fun (r : Cpr_ir.Region.t) ->
        if Cpr_core.Frp.convert_region prog r then begin
          let (_ : Cpr_core.Spec.stats) =
            Cpr_core.Spec.speculate_region prog r
          in
          let ep = Cpr_analysis.Pred_env.analyze r in
          let er = RefEnv.analyze r in
          let ops = Cpr_analysis.Pred_env.ops ep in
          let n = Array.length ops in
          let branches =
            List.filter
              (fun j -> Cpr_ir.Op.is_branch ops.(j))
              (List.init n Fun.id)
          in
          (* A chain depends only on the branches it crosses, so the
             reference replays each suffix of [branches] once. *)
          let expected = Hashtbl.create 64 in
          let reference_chain bs =
            match Hashtbl.find_opt expected bs with
            | Some chain -> chain
            | None ->
              let path = ref R.tru in
              let chain =
                List.map
                  (fun j ->
                    path := R.and_ !path (R.not_ (RefEnv.taken_expr er j));
                    !path)
                  bs
              in
              Hashtbl.replace expected bs chain;
              chain
          in
          for start = 0 to n - 1 do
            let bs = List.filter (fun j -> j >= start) branches in
            let path = ref Pqs.tru in
            List.iter2
              (fun j path_r ->
                path :=
                  Pqs.and_ !path
                    (Pqs.not_ (Cpr_analysis.Pred_env.taken_expr ep j));
                if Pqs.to_reference !path <> path_r then
                  Alcotest.failf "gen-%d/%s: chain %d..%d diverged" seed
                    r.Cpr_ir.Region.label start j)
              bs (reference_chain bs)
          done
        end)
      (Cpr_ir.Prog.regions prog)
  done

let suite =
  ( "pqs",
    [
      case "constants" constants;
      case "contradiction and negation" contradiction_and_negation;
      case "disjointness" disjointness;
      case "implication" implication;
      case "entry literals" entry_literals;
      case "hash-consing" hash_consing;
      case "engines agree on programs" engines_agree_on_programs;
      case "oracle batch reaches the cap" oracle_batch_reaches_cap;
      case "path chains agree at scale" path_chains_agree;
      QCheck_alcotest.to_alcotest prop_disjoint_sound;
      QCheck_alcotest.to_alcotest prop_implies_sound;
      QCheck_alcotest.to_alcotest prop_eval_homomorphic;
      QCheck_alcotest.to_alcotest prop_engines_agree;
    ] )

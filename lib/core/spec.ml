open Cpr_ir
module Liveness = Cpr_analysis.Liveness
module Pred_env = Cpr_analysis.Pred_env
module Pqs = Cpr_analysis.Pqs

type stats = {
  promoted : int;
  demoted : int;
}

let candidate (op : Op.t) =
  match (op.Op.guard, op.Op.opcode) with
  | Op.True, _ -> false
  | _, (Op.Cmpp _ | Op.Store | Op.Branch | Op.Pred_init _) -> false
  | Op.If _, (Op.Alu _ | Op.Falu _ | Op.Load | Op.Pbr) -> true

(* Promotion decisions are computed against the pristine region and
   applied as a batch: a use by an operation that is itself promoted still
   contributes its original guard to the liveness expression ("promotion
   faithfully mirrors the original code", Section 6) — judging uses by
   post-promotion guards would block every producer whose consumer was
   promoted first. *)
let promote_pass liveness (region : Region.t) =
  let env = Pred_env.analyze region in
  let ops = Pred_env.ops env in
  let promoted = ref [] in
  Array.iteri
    (fun idx (op : Op.t) ->
      if candidate op then begin
        let guard_e = Pred_env.guard_expr env idx in
        let clobber_safe =
          List.for_all
            (fun d ->
              let live_e = Liveness.live_expr_after liveness env region idx d in
              Pqs.implies live_e guard_e)
            (Op.defs op)
        in
        if clobber_safe then promoted := (op.Op.id, op.Op.guard) :: !promoted
      end)
    ops;
  let promoted = List.rev !promoted in
  let ids = Hashtbl.create 64 in
  List.iter (fun (id, _) -> Hashtbl.replace ids id ()) promoted;
  region.Region.ops <-
    List.map
      (fun (o : Op.t) ->
        if Hashtbl.mem ids o.Op.id then { o with Op.guard = Op.True } else o)
      region.Region.ops;
  promoted

(* A direct flow dependence: [consumer] reads a register [producer]
   defines, with no intervening definition.  [ops] is the sweep's
   snapshot of the region: demotions earlier in the sweep rewrite only
   the guards of ops already visited, so the defs scanned here and the
   uses of the op at [idx] are still those of the region. *)
let direct_flow_producers ops idx =
  let op = ops.(idx) in
  let producers = ref [] in
  List.iter
    (fun r ->
      let rec scan k =
        if k < 0 then ()
        else if List.exists (Reg.equal r) (Op.defs ops.(k)) then
          producers := k :: !producers
        else scan (k - 1)
      in
      scan (idx - 1))
    (Op.uses op);
  List.sort_uniq Int.compare !producers

(* Second demotion criterion (Section 5.1): a promoted operation that
   still carries a branch dependence — some destination is live at the
   target of a preceding branch whose taken condition is compatible with
   the original guard — is demoted, replacing the branch dependence with
   a data dependence on the guard's compare.  This is what keeps
   operations writing exit-live values (e.g. accumulators) predicated, so
   ICBM can move them off-trace. *)
let branch_dependent liveness (region : Region.t) env idx (op : Op.t) =
  let ops = Pred_env.ops env in
  let rec scan k found =
    if k >= idx || found then found
    else
      let found =
        Op.is_branch ops.(k)
        && (not
              (Pqs.disjoint (Pred_env.taken_expr env k)
                 (Pred_env.guard_expr env idx)))
        && List.exists
             (fun d ->
               Reg.Set.mem d (Liveness.live_at_target liveness region ops.(k)))
             (Op.defs op)
      in
      scan (k + 1) found
  in
  scan 0 false

let demote_pass prog (region : Region.t) promoted =
  let demoted = ref 0 in
  let changed = ref true in
  let still_promoted = Hashtbl.create 17 in
  List.iter (fun (id, g) -> Hashtbl.replace still_promoted id g) promoted;
  while !changed do
    changed := false;
    (* guards changed (promotions applied, earlier demotions), so both the
       global liveness and the predicate environments are recomputed *)
    let liveness = Liveness.analyze prog in
    let env = Pred_env.analyze region in
    let ops = Pred_env.ops env in
    Array.iteri
      (fun idx (op : Op.t) ->
        match Hashtbl.find_opt still_promoted op.Op.id with
        | None -> ()
        | Some original_guard ->
          let orig_e =
            match original_guard with
            | Op.True -> Pqs.tru
            | Op.If p -> Pred_env.reg_expr_before env idx p
          in
          let useless_promotion =
            List.exists
              (fun k ->
                let producer = ops.(k) in
                match producer.Op.guard with
                | Op.True -> false
                | Op.If _ ->
                  (not (Hashtbl.mem still_promoted producer.Op.id))
                  && Pqs.implies orig_e (Pred_env.guard_expr env k))
              (direct_flow_producers ops idx)
          in
          let should_demote =
            useless_promotion || branch_dependent liveness region env idx op
          in
          if should_demote then begin
            Hashtbl.remove still_promoted op.Op.id;
            incr demoted;
            changed := true;
            region.Region.ops <-
              List.map
                (fun (o : Op.t) ->
                  if o.Op.id = op.Op.id then { o with Op.guard = original_guard }
                  else o)
                region.Region.ops
          end)
      ops
  done;
  !demoted

let speculate_region prog region =
  let liveness = Liveness.analyze prog in
  let promoted = promote_pass liveness region in
  let demoted = demote_pass prog region promoted in
  { promoted = List.length promoted; demoted }

let speculate prog =
  List.fold_left
    (fun acc r ->
      let s = speculate_region prog r in
      { promoted = acc.promoted + s.promoted; demoted = acc.demoted + s.demoted })
    { promoted = 0; demoted = 0 }
    (Prog.regions prog)

open Cpr_ir

(* The chain of (controlling compare, branch) pairs of an FRP-converted
   superblock: compare 1 unguarded, compare i+1 guarded by compare i's UC
   destination. *)
let frp_chain (region : Region.t) =
  let ops = region.Region.ops in
  let controlling (br : Op.t) =
    match br.Op.guard with
    | Op.True -> None
    | Op.If p -> (
      match
        List.filter
          (fun (op : Op.t) -> List.exists (Reg.equal p) (Op.defs op))
          ops
      with
      | [ cmp ] -> (
        match cmp.Op.opcode with
        | Op.Cmpp (_, Op.Un, _) when List.hd cmp.Op.dests |> Reg.equal p ->
          Some cmp
        | _ -> None)
      | _ -> None)
  in
  let rec chain expected acc = function
    | [] -> Some (List.rev acc)
    | (br : Op.t) :: rest -> (
      match controlling br with
      | None -> None
      | Some cmp -> (
        let guard_ok =
          match (cmp.Op.guard, expected) with
          | Op.True, None -> true
          | Op.If g, Some prev_uc -> Reg.equal g prev_uc
          | _ -> false
        in
        if not guard_ok then None
        else
          match (cmp.Op.opcode, cmp.Op.dests) with
          | Op.Cmpp (_, Op.Un, Some Op.Uc), [ _; uc ] ->
            chain (Some uc) ((cmp, br) :: acc) rest
          | Op.Cmpp (_, Op.Un, None), [ _ ] when rest = [] ->
            chain expected ((cmp, br) :: acc) rest
          | _ -> None))
  in
  chain None [] (Region.branches region)

let transform_region (prog : Prog.t) (region : Region.t) =
  match frp_chain region with
  | None | Some ([] | [ _ ]) -> false
  | Some pairs ->
    let n = List.length pairs in
    (* one fresh taken-predicate per branch, wired-and initialized true *)
    let qs = Array.init n (fun _ -> Prog.fresh_pred prog) in
    let init =
      Op.make ~id:(Prog.fresh_op_id prog)
        (Op.Pred_init (List.init n (fun _ -> true)))
        (Array.to_list qs) []
    in
    (* after compare i (0-based), insert the column of wired-and copies:
       q_j for j > i accumulates !c_i, and q_i accumulates c_i (kill when
       the branch would not take) *)
    let columns = Hashtbl.create 7 in
    List.iteri
      (fun i ((cmp : Op.t), _) ->
        let cond j =
          match cmp.Op.opcode with
          | Op.Cmpp (c, _, _) -> if j = i then Op.negate_cond c else c
          | _ -> assert false
        in
        let copies =
          (* pair destinations two per compare where possible *)
          let rec emit js acc =
            match js with
            | [] -> List.rev acc
            | [ j ] ->
              List.rev
                (Op.make ~id:(Prog.fresh_op_id prog) ~orig:cmp.Op.id
                   (Op.Cmpp (cond j, Op.Ac, None))
                   [ qs.(j) ] cmp.Op.srcs
                :: acc)
            | j :: k :: rest when cond j = cond k ->
              emit rest
                (Op.make ~id:(Prog.fresh_op_id prog) ~orig:cmp.Op.id
                   (Op.Cmpp (cond j, Op.Ac, Some Op.Ac))
                   [ qs.(j); qs.(k) ] cmp.Op.srcs
                :: acc)
            | j :: rest ->
              emit rest
                (Op.make ~id:(Prog.fresh_op_id prog) ~orig:cmp.Op.id
                   (Op.Cmpp (cond j, Op.Ac, None))
                   [ qs.(j) ] cmp.Op.srcs
                :: acc)
          in
          emit (List.init (n - i) (fun k -> i + k)) []
        in
        Hashtbl.replace columns cmp.Op.id copies)
      pairs;
    (* rewire each branch to its fresh predicate *)
    let branch_q = Hashtbl.create 7 in
    List.iteri
      (fun j ((_ : Op.t), (br : Op.t)) ->
        Hashtbl.replace branch_q br.Op.id qs.(j))
      pairs;
    region.Region.ops <-
      init
      :: List.concat_map
           (fun (op : Op.t) ->
             let op =
               match Hashtbl.find_opt branch_q op.Op.id with
               | Some q -> { op with Op.guard = Op.If q }
               | None -> op
             in
             match Hashtbl.find_opt columns op.Op.id with
             | Some copies -> op :: copies
             | None -> [ op ])
           region.Region.ops;
    true

let transform prog =
  List.fold_left
    (fun acc r -> if transform_region prog r then acc + 1 else acc)
    0 (Prog.regions prog)

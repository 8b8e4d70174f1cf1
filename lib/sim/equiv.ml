open Cpr_ir

type input = {
  memory : (int * int) list;
  gprs : (Reg.t * int) list;
  preds : (Reg.t * bool) list;
}

let no_input = { memory = []; gprs = []; preds = [] }
let input_of_memory memory = { no_input with memory }

let initial_state input =
  let st = State.create () in
  State.set_memory st input.memory;
  List.iter (fun (r, v) -> State.write_gpr st r v) input.gprs;
  List.iter (fun (r, v) -> State.write_pred st r v) input.preds;
  st

let run_on ?profile prog input =
  Interp.run ~state:(initial_state input) ?profile prog

let per_address trace =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (a, v) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl a) in
      Hashtbl.replace tbl a (v :: prev))
    trace;
  Hashtbl.fold (fun a vs acc -> (a, List.rev vs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let compare_outcomes reference (ref_out : Interp.outcome)
    (cand_out : Interp.outcome) =
  let rs = ref_out.Interp.state and cs = cand_out.Interp.state in
  if ref_out.Interp.exit_label <> cand_out.Interp.exit_label then
    fail "exit labels differ: %s vs %s"
      (Option.value ~default:"<end>" ref_out.Interp.exit_label)
      (Option.value ~default:"<end>" cand_out.Interp.exit_label)
  else if not (State.same_memory rs cs) then fail "final memories differ"
  else if
    (* Identical whole traces have identical per-address sequences; only
       a difference needs the grouping. *)
    (not (State.same_store_trace rs cs))
    && per_address (State.store_trace rs) <> per_address (State.store_trace cs)
  then fail "store sequences differ"
  else begin
    let bad_reg =
      List.find_opt
        (fun r ->
          Reg.is_pred r = false && State.read_gpr rs r <> State.read_gpr cs r)
        reference.Prog.live_out
    in
    match bad_reg with
    | Some r -> fail "live-out register %s differs" (Reg.to_string r)
    | None -> Ok ()
  end

let check reference candidate input =
  match (run_on reference input, run_on candidate input) with
  | exception Interp.Stuck msg -> fail "interpreter stuck: %s" msg
  | ref_out, cand_out -> compare_outcomes reference ref_out cand_out

let check_many reference candidate inputs =
  List.fold_left
    (fun acc input -> match acc with Error _ -> acc | Ok () -> check reference candidate input)
    (Ok ()) inputs

let check_outcomes reference ref_outs cand_outs =
  List.fold_left2
    (fun acc r c ->
      match acc with Error _ -> acc | Ok () -> compare_outcomes reference r c)
    (Ok ()) ref_outs cand_outs

(* ------------------------------------------------------------------ *)
(* One-line textual input serialization, shared by the fuzz corpus
   artifacts and the resilience layer's crash bundles (both store one
   [# input: ...] comment line per training input). *)

let reg_of_string s =
  if String.length s < 2 then invalid_arg ("bad register " ^ s)
  else begin
    let id = int_of_string (String.sub s 1 (String.length s - 1)) in
    match s.[0] with
    | 'r' -> Reg.gpr id
    | 'p' -> Reg.pred id
    | 'b' -> Reg.btr id
    | _ -> invalid_arg ("bad register " ^ s)
  end

let input_to_string i =
  let pair (k, v) = Printf.sprintf "%d=%d" k v in
  let rpair (r, v) = Printf.sprintf "%s=%d" (Reg.to_string r) v in
  let bpair (r, b) =
    Printf.sprintf "%s=%d" (Reg.to_string r) (if b then 1 else 0)
  in
  let groups =
    List.filter
      (fun s -> s <> "")
      [
        (if i.memory = [] then ""
         else "mem " ^ String.concat " " (List.map pair i.memory));
        (if i.gprs = [] then ""
         else "gpr " ^ String.concat " " (List.map rpair i.gprs));
        (if i.preds = [] then ""
         else "pred " ^ String.concat " " (List.map bpair i.preds));
      ]
  in
  String.concat " ; " groups

let input_of_string s =
  let parse_kv kv =
    match String.index_opt kv '=' with
    | Some i ->
      ( String.sub kv 0 i,
        int_of_string (String.sub kv (i + 1) (String.length kv - i - 1)) )
    | None -> invalid_arg ("bad binding " ^ kv)
  in
  let input = ref no_input in
  List.iter
    (fun group ->
      match
        List.filter
          (fun t -> t <> "")
          (String.split_on_char ' ' (String.trim group))
      with
      | [] -> ()
      | kind :: kvs ->
        let kvs = List.map parse_kv kvs in
        let i = !input in
        input :=
          (match kind with
          | "mem" ->
            { i with memory = List.map (fun (a, v) -> (int_of_string a, v)) kvs }
          | "gpr" ->
            { i with gprs = List.map (fun (r, v) -> (reg_of_string r, v)) kvs }
          | "pred" ->
            {
              i with
              preds = List.map (fun (r, v) -> (reg_of_string r, v <> 0)) kvs;
            }
          | k -> invalid_arg ("bad input group " ^ k)))
    (String.split_on_char ';' s);
  !input

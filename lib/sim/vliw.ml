open Cpr_ir
module Schedule = Cpr_sched.Schedule

type outcome = {
  state : State.t;
  exit_label : string option;
  cycles : int;
  region_entries : int;
}

exception Vliw_error of string

type pending =
  | Write_gpr of Reg.t * int
  | Write_pred of Reg.t * bool
  | Write_btr of Reg.t * string
  | Write_mem of int * int

let apply st = function
  | Write_gpr (r, v) -> State.write_gpr st r v
  | Write_pred (r, v) -> State.write_pred st r v
  | Write_btr (r, l) -> State.write_btr st r l
  | Write_mem (a, v) -> State.write_mem st a v

let operand_value st = function
  | Op.Reg r -> (
    match r.Reg.cls with
    | Reg.Gpr -> State.read_gpr st r
    | Reg.Pred -> if State.read_pred st r then 1 else 0
    | Reg.Btr -> raise (Vliw_error "btr read as value"))
  | Op.Imm i -> i
  | Op.Lab _ -> raise (Vliw_error "label read as value")

(* Effects of issuing [op] at cycle [c]: pending writes that land at
   [c + latency], and the redirect target if this is a taken branch. *)
let issue machine st (op : Op.t) =
  let guard =
    match op.Op.guard with
    | Op.True -> true
    | Op.If p -> State.read_pred st p
  in
  let lat = Cpr_machine.Descr.latency_of machine op in
  let writes = ref [] in
  let redirect = ref None in
  (if guard then
     match op.Op.opcode with
     | Op.Alu a -> (
       match (op.Op.dests, op.Op.srcs) with
       | [ d ], [ x; y ] ->
         writes :=
           [ Write_gpr (d, Op.eval_alu a (operand_value st x) (operand_value st y)) ]
       | _ -> raise (Vliw_error "malformed alu"))
     | Op.Falu f -> (
       match (op.Op.dests, op.Op.srcs) with
       | [ d ], [ x; y ] ->
         writes :=
           [ Write_gpr (d, Op.eval_falu f (operand_value st x) (operand_value st y)) ]
       | _ -> raise (Vliw_error "malformed falu"))
     | Op.Load -> (
       match (op.Op.dests, op.Op.srcs) with
       | [ d ], [ base; off ] ->
         writes :=
           [ Write_gpr
               (d, State.read_mem st (operand_value st base + operand_value st off));
           ]
       | _ -> raise (Vliw_error "malformed load"))
     | Op.Store -> (
       match op.Op.srcs with
       | [ base; off; v ] ->
         writes :=
           [ Write_mem
               (operand_value st base + operand_value st off, operand_value st v);
           ]
       | _ -> raise (Vliw_error "malformed store"))
     | Op.Pbr -> (
       match (op.Op.dests, op.Op.srcs) with
       | [ d ], Op.Lab l :: _ -> writes := [ Write_btr (d, l) ]
       | _ -> raise (Vliw_error "malformed pbr"))
     | Op.Branch -> (
       match op.Op.srcs with
       | [ Op.Reg b ] -> (
         match State.read_btr st b with
         | Some l -> redirect := Some l
         | None -> raise (Vliw_error "branch through unset btr"))
       | _ -> raise (Vliw_error "malformed branch"))
     | Op.Pred_init bits ->
       writes :=
         List.map2 (fun d v -> Write_pred (d, v)) op.Op.dests bits
     | Op.Cmpp _ -> ());
  (* cmpp destinations: Table 1 semantics evaluate even under a false
     guard for the unconditional destinations. *)
  (match op.Op.opcode with
  | Op.Cmpp (cond, a1, a2) -> (
    match op.Op.srcs with
    | [ x; y ] ->
      let c = Op.eval_cond cond (operand_value st x) (operand_value st y) in
      List.iter2
        (fun action d ->
          match Op.cmpp_dest_update action ~guard ~cond:c with
          | Some v -> writes := Write_pred (d, v) :: !writes
          | None -> ())
        (a1 :: Option.to_list a2)
        op.Op.dests
    | _ -> raise (Vliw_error "malformed cmpp"))
  | _ -> ());
  (List.rev !writes, lat, !redirect)

(* One region's schedule laid out for execution: the ops issued in each
   cycle, in program order.  Every latency is at least one cycle, so
   every op issues before [length]. *)
type region_code = {
  length : int;
  by_cycle : Op.t list array;
  fallthrough : string option;
}

let lay_out (s : Schedule.t) =
  let by_cycle = Array.make s.Schedule.length [] in
  for i = Array.length s.Schedule.ops - 1 downto 0 do
    let c = s.Schedule.cycle.(i) in
    by_cycle.(c) <- s.Schedule.ops.(i) :: by_cycle.(c)
  done;
  {
    length = s.Schedule.length;
    by_cycle;
    fallthrough = s.Schedule.region.Region.fallthrough;
  }

(* The first step: schedule every region once. *)
let compile machine prog =
  let code = Hashtbl.create 17 in
  List.iter
    (fun (label, s) -> Hashtbl.replace code label (lay_out s))
    (Cpr_sched.List_sched.schedule_prog machine prog);
  code

(* The second step: execute the laid-out schedules from [st]. *)
let execute ?(max_cycles = 10_000_000) machine prog code st =
  let total_cycles = ref 0 in
  let entries = ref 0 in
  let rec run_region label =
    if Prog.is_exit prog label then Some label
    else
      match Hashtbl.find_opt code label with
      | None -> raise (Vliw_error ("no schedule for " ^ label))
      | Some { length; by_cycle; fallthrough } ->
        incr entries;
        (* cycle -> batches of writes landing then, newest batch first;
           a write issued at [c] lands at [c + latency <= length] *)
        let pending = Array.make (length + 1) [] in
        let redirect = ref None (* (cycle, target) *) in
        let land_writes c =
          List.iter (List.iter (apply st)) (List.rev pending.(c));
          pending.(c) <- []
        in
        let flush_all () =
          for c = 0 to length do
            land_writes c
          done
        in
        let result = ref None in
        let c = ref 0 in
        while !result = None do
          if !total_cycles > max_cycles then
            raise (Vliw_error "cycle budget exceeded");
          land_writes !c;
          (match !redirect with
          | Some (rc, target) when rc = !c ->
            flush_all ();
            result := Some (`Goto target)
          | _ ->
            if !c >= length then begin
              flush_all ();
              result :=
                Some
                  (match fallthrough with
                  | Some next -> `Goto next
                  | None -> `Halt)
            end
            else begin
              List.iter
                (fun op ->
                  let writes, lat, br = issue machine st op in
                  if writes <> [] then
                    pending.(!c + lat) <- writes :: pending.(!c + lat);
                  match br with
                  | Some target -> (
                    match !redirect with
                    | Some (rc, _) when rc = !c + lat ->
                      raise (Vliw_error "simultaneous taken branches")
                    | Some (rc, _) when rc < !c + lat -> ()
                    | _ -> redirect := Some (!c + lat, target))
                  | None -> ())
                by_cycle.(!c);
              incr total_cycles;
              incr c
            end)
        done;
        (match !result with
        | Some (`Goto next) -> run_region next
        | Some `Halt -> None
        | None -> assert false)
  in
  let exit_label = run_region prog.Prog.entry in
  {
    state = st;
    exit_label;
    cycles = !total_cycles;
    region_entries = !entries;
  }

let run ?state ?max_cycles machine prog =
  let st = match state with Some s -> s | None -> State.create () in
  execute ?max_cycles machine prog (compile machine prog) st

(* One input: execute the (lazily built, shared) schedules and compare
   with the interpreter's run of the same program on that input.
   {!Equiv.compare_outcomes} reads only the exit label and the final
   state, so the interpreter-only counters are left at zero. *)
let check_one machine prog code input (reference : Interp.outcome) =
  match
    execute machine prog (Lazy.force code) (Equiv.initial_state input)
  with
  | exception Vliw_error m -> Error ("vliw error: " ^ m)
  | vl ->
    Equiv.compare_outcomes prog reference
      {
        Interp.state = vl.state;
        exit_label = vl.exit_label;
        ops_executed = 0;
        ops_issued = 0;
        branches_executed = 0;
        steps = 0;
      }

let check_outcomes machine prog inputs outcomes =
  let code = lazy (compile machine prog) in
  List.fold_left2
    (fun acc input reference ->
      match acc with
      | Error _ -> acc
      | Ok () -> check_one machine prog code input reference)
    (Ok ()) inputs outcomes

(* Input by input: a later input is not interpreted once an earlier one
   has failed. *)
let check_against_interp machine prog inputs =
  let code = lazy (compile machine prog) in
  List.fold_left
    (fun acc input ->
      match acc with
      | Error _ -> acc
      | Ok () -> check_one machine prog code input (Equiv.run_on prog input))
    (Ok ()) inputs

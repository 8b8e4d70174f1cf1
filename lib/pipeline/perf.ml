open Cpr_ir

(* Liveness is machine-independent: one analysis serves every
   machine's schedules. *)
let estimates machines prog =
  let live = Cpr_analysis.Liveness.analyze prog in
  List.map
    (fun (m : Cpr_machine.Descr.t) ->
      ( m.Cpr_machine.Descr.name,
        List.fold_left
          (fun acc (r : Region.t) ->
            let s = Cpr_sched.List_sched.schedule m prog live r in
            acc + (s.Cpr_sched.Schedule.length * r.Region.entry_count))
          0 (Prog.regions prog) ))
    machines

let estimate machine prog = snd (List.hd (estimates [ machine ] prog))

let estimate_exit_aware machine prog =
  let schedules = Cpr_sched.List_sched.schedule_prog machine prog in
  List.fold_left
    (fun acc (label, (s : Cpr_sched.Schedule.t)) ->
      let region = Prog.find_exn prog label in
      let taken_total = ref 0 in
      let exit_cycles = ref 0 in
      List.iter
        (fun (br : Op.t) ->
          let taken = Region.taken_count region br.Op.id in
          if taken > 0 then begin
            taken_total := !taken_total + taken;
            match Cpr_sched.Schedule.branch_issue s br.Op.id with
            | Some c ->
              exit_cycles :=
                !exit_cycles
                + (taken * (c + Cpr_machine.Descr.latency_of machine br))
            | None -> exit_cycles := !exit_cycles + (taken * s.length)
          end)
        (Region.branches region);
      let fallthrough_entries =
        max 0 (region.Region.entry_count - !taken_total)
      in
      acc + !exit_cycles + (fallthrough_entries * s.Cpr_sched.Schedule.length))
    0 schedules

let bound_estimate machine prog =
  let live = Cpr_analysis.Liveness.analyze prog in
  List.fold_left
    (fun acc (r : Region.t) ->
      if r.Region.ops = [] then acc
      else
        let s = Cpr_analysis.Height.of_region machine prog live r in
        acc + (s.Cpr_analysis.Height.bound * r.Region.entry_count))
    0 (Prog.regions prog)

let speedup ~baseline ~transformed =
  if transformed = 0 then 1.0 else float_of_int baseline /. float_of_int transformed

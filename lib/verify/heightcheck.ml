open Cpr_ir
module Depgraph = Cpr_analysis.Depgraph
module Height = Cpr_analysis.Height
module Liveness = Cpr_analysis.Liveness
module Descr = Cpr_machine.Descr
module List_sched = Cpr_sched.List_sched

type row = {
  region : string;
  n_ops : int;
  dep_height : int;
  branch_height : int;
  res_bound : int;
  bound : int;
  achieved : int;
}

let region_row machine prog live (r : Region.t) =
  let dg = Depgraph.build machine prog live r in
  let s = Height.summarize machine dg in
  let sched = List_sched.schedule_graph machine r dg in
  {
    region = r.Region.label;
    n_ops = List.length r.Region.ops;
    dep_height = s.Height.dep_height;
    branch_height = s.Height.branch_height;
    res_bound = s.Height.res_bound;
    bound = s.Height.bound;
    achieved = sched.Cpr_sched.Schedule.length;
  }

let rows ?(machine = Descr.medium) prog =
  Sweep.map_regions prog ~f:(region_row machine prog)

(* A side exit is "cold" when its profiled taken fraction stays at or
   below the default exit-weight threshold — the same notion CPR block
   growth uses, so "missed" means missed by the heuristics' own
   standard.  Unprofiled programs (entry count 0) have no cold/hot
   information and are skipped. *)
let cold_branch (r : Region.t) (op : Op.t) =
  r.Region.entry_count > 0
  && float_of_int (Region.taken_count r op.Op.id)
     /. float_of_int r.Region.entry_count
     <= Cpr_core.Heur.default.Cpr_core.Heur.exit_weight_threshold

let check_region machine ~factor ~missed ~stats prog live (r : Region.t) =
  let dg = Depgraph.build machine prog live r in
  let s = Height.summarize machine dg in
  let sched = List_sched.schedule_graph machine r dg in
  let achieved = sched.Cpr_sched.Schedule.length in
  let findings = ref [] in
  if achieved < s.Height.bound then
    findings :=
      Finding.make ~check:"height-bound" ~severity:Finding.Error
        ~region:r.Region.label
        (Printf.sprintf
           "achieved schedule length %d is below the static lower bound \
            %d (dep %d, res %d) — the bound or the scheduler is wrong"
           achieved s.Height.bound s.Height.dep_height s.Height.res_bound)
      :: !findings
  else begin
    stats.Finding.proved <- stats.Finding.proved + 1;
    if float_of_int achieved > (factor *. float_of_int s.Height.bound) +. 2.
    then
      findings :=
        Finding.make ~check:"sched-quality" ~severity:Finding.Warning
          ~region:r.Region.label
          (Printf.sprintf
             "achieved schedule length %d exceeds the static lower bound \
              %d by more than %.1fx (dep height %d, resource bound %d)"
             achieved s.Height.bound factor s.Height.dep_height
             s.Height.res_bound)
        :: !findings
  end;
  if missed && s.Height.dep_height >= s.Height.res_bound then begin
    let slack = Height.slack dg in
    let ops = Array.of_list r.Region.ops in
    (* The region's last branch is its hot exit/backedge — off-trace
       motion keeps it by design — so only earlier (side-exit) branches
       can be missed opportunities. *)
    let last_branch = ref (-1) in
    Array.iteri
      (fun i op -> if Op.is_branch op then last_branch := i)
      ops;
    Array.iteri
      (fun i (op : Op.t) ->
        if
          Op.is_branch op && i < !last_branch && slack.(i) = 0
          && cold_branch r op
        then
          findings :=
            Finding.make ~check:"height-missed-cpr"
              ~severity:Finding.Warning ~region:r.Region.label ~op:op.Op.id
              (Printf.sprintf
                 "cold side exit %d (taken %d of %d entries) still on the \
                  critical path of a dependence-bound region (height %d) \
                  after height reduction"
                 op.Op.id
                 (Region.taken_count r op.Op.id)
                 r.Region.entry_count s.Height.dep_height)
            :: !findings)
      ops
  end;
  List.rev !findings

let check ?(machine = Descr.medium) ?(factor = 2.0) ?(missed = false) ~stats
    prog =
  Sweep.concat_map_regions prog
    ~f:(fun live r -> check_region machine ~factor ~missed ~stats prog live r)

type t = {
  exit_weight_threshold : float;
  predict_taken_threshold : float;
  max_block_branches : int;
  hot_region_fraction : float;
}

let default =
  {
    exit_weight_threshold = 0.12;
    predict_taken_threshold = 0.60;
    max_block_branches = 16;
    hot_region_fraction = 0.001;
  }

(* Section 7: "the further development of distinct heuristics for each
   machine configuration would alleviate this problem" — narrow machines
   want small CPR blocks (cheap exits, little parallelism to feed), wide
   machines tolerate large ones. *)
let tuned_for (m : Cpr_machine.Descr.t) =
  match m.Cpr_machine.Descr.issue with
  | Cpr_machine.Descr.Sequential ->
    (* the sequential machine gains from removed operations, which favours
       large CPR blocks *)
    { default with exit_weight_threshold = 0.25 }
  | Cpr_machine.Descr.Regular { i; _ } ->
    if i <= 2 then { default with exit_weight_threshold = 0.05 }
    else if i <= 4 then default
    else { default with exit_weight_threshold = 0.25 }

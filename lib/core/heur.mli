(** Heuristic knobs controlling CPR block formation (Section 5.2).

    As in the paper, a single setting — tuned for the medium processor —
    is used unchanged for every machine configuration; the paper explicitly
    notes (and Table 2 shows) that this costs performance on the
    sequential and narrow machines. *)

type t = {
  exit_weight_threshold : float;
      (** stop growing a CPR block when cumulative exit frequency divided
          by block entry frequency would exceed this *)
  predict_taken_threshold : float;
      (** a candidate branch whose taken frequency divided by block entry
          frequency exceeds this closes the block as a likely-taken CPR
          block (taken restructure variation) *)
  max_block_branches : int;  (** hard cap on branches per CPR block *)
  hot_region_fraction : float;
      (** regions whose profiled entry count is below this fraction of the
          hottest region are left untransformed (the paper's control of
          static code growth) *)
}

val default : t

val tuned_for : Cpr_machine.Descr.t -> t
(** Per-machine settings (the paper's "future work": distinct heuristics
    per configuration): tighter exit-weight blocking for the sequential
    and narrow machines, looser for the wide ones. *)

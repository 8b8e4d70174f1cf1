let json_escape = Cpr_obs.Obs.Json.escape

(* [Filename.dirname "x.json"] is "." — concatenating it back would turn
   a bare --json filename into "./BENCH_latest.json", a distinct string
   that defeats the dated = latest dedup and writes the same file twice
   (historically, after just having compared it against itself). *)
let targets ~is_dir ~date path =
  if is_dir then
    ( Filename.concat path (Printf.sprintf "BENCH_%s.json" date),
      Filename.concat path "BENCH_latest.json" )
  else begin
    let dir = Filename.dirname path in
    let latest =
      if dir = Filename.current_dir_name && Filename.is_implicit path then
        "BENCH_latest.json"
      else Filename.concat dir "BENCH_latest.json"
    in
    (path, latest)
  end

let suite_seconds results =
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 results in
  ( sum (fun (r : Report.result) -> r.Report.verify_s),
    sum (fun (r : Report.result) -> r.Report.total_s) )

module Json = Cpr_obs.Obs.Json

(* Measured figures keep the digits the artifacts have always carried:
   rounded through their fixed-point text, they print back (shortest
   form) as exactly those digits. *)
let fixed digits x =
  Json.Num (float_of_string (Printf.sprintf "%.*f" digits x))
let int n = Json.Num (float_of_int n)
let table f kvs = Json.Obj (List.map (fun (k, v) -> (k, f v)) kvs)

let benchmark (r : Report.result) =
  let pressure =
    List.map (fun (cls, v) -> (cls ^ "_maxlive", v)) r.Report.pressure
  in
  Json.Obj
    ([
       ("name", Json.Str r.Report.name);
       ("speedups", table (fixed 4) r.Report.speedups);
       ( "op_ratios",
         table (fixed 4)
           [
             ("s_tot", r.Report.s_tot);
             ("s_br", r.Report.s_br);
             ("d_tot", r.Report.d_tot);
             ("d_br", r.Report.d_br);
           ] );
       ("verify_s", fixed 4 r.Report.verify_s);
       ("total_s", fixed 4 r.Report.total_s);
       ("degraded", Json.Bool (Report.degraded r));
       ( "height",
         Json.Obj
           [
             ("bound_cycles", int r.Report.bound_cycles);
             ("achieved_cycles", int r.Report.achieved_cycles);
             ("gap", fixed 4 r.Report.height_gap);
           ] );
     ]
    @ (if pressure = [] then [] else [ ("pressure", table int pressure) ])
    @ [
        ("baseline_cycles", table int r.Report.baseline_cycles);
        ("reduced_cycles", table int r.Report.reduced_cycles);
      ])

let render ?(pqs = []) ~date ~domains ~results ~micro ~par () =
  let totals =
    if results = [] then []
    else
      let verify_total, suite_total = suite_seconds results in
      [
        ("verify_total_s", fixed 4 verify_total);
        ("suite_total_s", fixed 4 suite_total);
      ]
  in
  let pqs =
    if pqs = [] then [] else [ ("pqs", table int (List.sort compare pqs)) ]
  in
  let (s1, sn), (f1, fn) = par in
  let parallel =
    Json.Obj
      [
        ("domains_requested", int domains);
        ( "suite_wall_s",
          table (fixed 3) [ ("domains_1", s1); ("domains_requested", sn) ] );
        ( "fuzz_seeds_per_s",
          table (fixed 1) [ ("domains_1", f1); ("domains_requested", fn) ] );
      ]
  in
  let micro =
    table
      (function Some e -> fixed 1 e | None -> Json.Null)
      (List.sort compare micro)
  in
  Json.to_string
    (Json.Obj
       ((("date", Json.Str date) :: totals)
       @ pqs
       @ [
           ("parallel", parallel);
           ("benchmarks", Json.Arr (List.map benchmark results));
           ("micro_ns_per_run", micro);
         ]))
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Reading back                                                        *)

let read_file path =
  if Sys.file_exists path then
    Some (In_channel.with_open_text path In_channel.input_all)
  else None

type height_entry = {
  gap : float;
  h_bound : int;
  h_achieved : int;
}

type workload = {
  name : string;
  verify_s : float;
  total_s : float;
  height : height_entry option;
  pressure : (string * int) list;
}

type baseline = {
  verify_total_s : float option;
  pqs : (string * int) list;
  micro : (string * float) list;
  workloads : workload list;
}

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

let count where k = function
  | Json.Num f when Float.is_integer f -> int_of_float f
  | _ -> malformed "%s: %s: expected an integer" where k

(* The members of the object under an optional [key], each read by [f]. *)
let entries kvs key f =
  match List.assoc_opt key kvs with
  | None -> []
  | Some (Json.Obj members) -> List.filter_map (fun (k, v) -> f k v) members
  | Some _ -> malformed "%s: expected an object" key

let read_workload = function
  | Json.Obj kvs -> (
    let get k = List.assoc_opt k kvs in
    match (get "name", get "verify_s", get "total_s") with
    | Some (Json.Str name), Some (Json.Num verify_s), Some (Json.Num total_s)
      ->
      let height =
        match get "height" with
        | None -> None
        | Some (Json.Obj h) -> (
          let get k = List.assoc_opt k h in
          match (get "gap", get "bound_cycles", get "achieved_cycles") with
          | Some (Json.Num gap), Some b, Some a ->
            Some
              {
                gap;
                h_bound = count name "bound_cycles" b;
                h_achieved = count name "achieved_cycles" a;
              }
          | _ -> malformed "%s: height: expected gap and cycle counts" name)
        | Some _ -> malformed "%s: height: expected an object" name
      in
      let pressure =
        entries kvs "pressure" (fun k v ->
            if String.ends_with ~suffix:"_maxlive" k then
              Some (String.sub k 0 (String.length k - 8), count name k v)
            else None)
      in
      { name; verify_s; total_s; height; pressure }
    | _ ->
      malformed
        "benchmarks: an entry lacks a string name or numeric verify_s and \
         total_s")
  | _ -> malformed "benchmarks: expected objects"

let parse text =
  match Json.parse text with
  | Error msg -> Error msg
  | Ok (Json.Obj top) -> (
    try
      Ok
        {
          verify_total_s =
            (match List.assoc_opt "verify_total_s" top with
            | None -> None
            | Some (Json.Num v) -> Some v
            | Some _ -> malformed "verify_total_s: expected a number");
          pqs = entries top "pqs" (fun k v -> Some (k, count "pqs" k v));
          micro =
            entries top "micro_ns_per_run" (fun k -> function
              | Json.Num e -> Some (k, e)
              | Json.Null -> None
              | _ -> malformed "micro_ns_per_run: %s: expected a number" k);
          workloads =
            (match List.assoc_opt "benchmarks" top with
            | None -> []
            | Some (Json.Arr vs) -> List.map read_workload vs
            | Some _ -> malformed "benchmarks: expected an array");
        }
    with Malformed msg -> Error msg)
  | Ok _ -> Error "expected a JSON object"

(* Warn-only regression tests for the quality metrics, shared by bench
   --check and its unit tests.

   The height gap is a ratio: on a tiny workload one cycle of schedule
   noise swings it past any percentage tolerance, so a regression must
   also grow the *absolute* cycle gap by at least
   [height_gap_floor_cycles] — the schedule-quality analogue of the 20ms
   wall-clock noise floor. *)
let height_gap_floor_cycles = 2

let height_regressed ~base ~cur =
  let abs_gap e = e.h_achieved - e.h_bound in
  cur.gap > base.gap +. 0.01
  && abs_gap cur - abs_gap base >= height_gap_floor_cycles

(* MAXLIVE counts are small integers; a couple of registers of movement
   is routine when block formation shifts. *)
let pressure_floor_regs = 2

let pressure_regressed ~base ~cur = cur - base > pressure_floor_regs

(* ------------------------------------------------------------------ *)
(* Baseline comparison                                                 *)

type delta = {
  workload : string;
  metric : string;
  base : float;
  cur : float;
  change_pct : float;
  regressed : bool;
}

(* Shared-runner wall clocks are noisy in both relative and absolute
   terms: a regression must clear the percentage tolerance AND a 20ms
   absolute floor before the gate trips. *)
let noise_floor_s = 0.02

let delta ~tolerance ~workload ~metric ~base ~cur =
  let change_pct = if base > 0. then (cur -. base) /. base *. 100. else 0. in
  let regressed =
    base > 0.
    && cur > base *. (1. +. (tolerance /. 100.))
    && cur -. base > noise_floor_s
  in
  { workload; metric; base; cur; change_pct; regressed }

let check ~tolerance ~baseline ~current =
  let matched =
    List.filter_map
      (fun ((name, _, _) as cur) ->
        Option.map
          (fun b -> (b, cur))
          (List.find_opt (fun b -> b.name = name) baseline.workloads))
      current
  in
  let per_workload =
    List.concat_map
      (fun (b, (_, cur_v, cur_t)) ->
        [
          delta ~tolerance ~workload:b.name ~metric:"total_s" ~base:b.total_s
            ~cur:cur_t;
          delta ~tolerance ~workload:b.name ~metric:"verify_s"
            ~base:b.verify_s ~cur:cur_v;
        ])
      matched
  in
  (* Suite wall time over the *matched* workloads, so gating a --quick
     run against a full-suite baseline compares like with like. *)
  let sum f = List.fold_left (fun acc m -> acc +. f m) 0.0 matched in
  if matched = [] then []
  else
    per_workload
    @ [
        delta ~tolerance ~workload:"(suite)" ~metric:"suite_total_s"
          ~base:(sum (fun (b, _) -> b.total_s))
          ~cur:(sum (fun (_, (_, _, cur_t)) -> cur_t));
      ]

let missing_from_current ~baseline ~current =
  List.filter_map
    (fun b ->
      if List.exists (fun (n, _, _) -> n = b.name) current then None
      else Some b.name)
    baseline.workloads

let regressions deltas = List.filter (fun d -> d.regressed) deltas

let pp_deltas ppf deltas =
  Format.fprintf ppf "%-14s%-14s%12s%12s%10s  %s@." "workload" "metric"
    "baseline" "current" "change" "";
  List.iter
    (fun d ->
      Format.fprintf ppf "%-14s%-14s%11.3fs%11.3fs%9.1f%%  %s@." d.workload
        d.metric d.base d.cur d.change_pct
        (if d.regressed then "REGRESSED" else "ok"))
    deltas

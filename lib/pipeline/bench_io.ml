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

let render ?(pqs = []) ~date ~domains ~results ~micro ~par () =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n  \"date\": \"%s\",\n" date;
  (if results <> [] then
     let verify_total, suite_total = suite_seconds results in
     add "  \"verify_total_s\": %.4f,\n  \"suite_total_s\": %.4f,\n"
       verify_total suite_total);
  (* Predicate-engine telemetry for the whole run, keyed by the full
     dotted counter name so [read_scalar] can find each line without
     clashing with any other key. *)
  if pqs <> [] then begin
    add "  \"pqs\": {";
    List.iteri
      (fun i (name, v) ->
        add "%s\n    \"%s\": %d" (if i = 0 then "" else ",") (json_escape name) v)
      (List.sort compare pqs);
    add "\n  },\n"
  end;
  let (s1, sn), (f1, fn) = par in
  add "  \"parallel\": {\n";
  add "    \"domains_requested\": %d,\n" domains;
  add "    \"suite_wall_s\": { \"domains_1\": %.3f, \"domains_requested\": \
       %.3f },\n"
    s1 sn;
  add "    \"fuzz_seeds_per_s\": { \"domains_1\": %.1f, \
       \"domains_requested\": %.1f }\n"
    f1 fn;
  add "  },\n";
  add "  \"benchmarks\": [";
  List.iteri
    (fun i (r : Report.result) ->
      add "%s\n    { \"name\": \"%s\",\n"
        (if i = 0 then "" else ",")
        (json_escape r.Report.name);
      add "      \"speedups\": {";
      List.iteri
        (fun j (m, s) ->
          add "%s \"%s\": %.4f" (if j = 0 then "" else ",") (json_escape m) s)
        r.Report.speedups;
      add " },\n";
      add "      \"op_ratios\": { \"s_tot\": %.4f, \"s_br\": %.4f, \
           \"d_tot\": %.4f, \"d_br\": %.4f },\n"
        r.Report.s_tot r.Report.s_br r.Report.d_tot r.Report.d_br;
      add "      \"verify_s\": %.4f,\n" r.Report.verify_s;
      add "      \"total_s\": %.4f,\n" r.Report.total_s;
      add "      \"degraded\": %b,\n" (Report.degraded r);
      add
        "      \"height\": { \"bound_cycles\": %d, \"achieved_cycles\": \
         %d, \"gap\": %.4f },\n"
        r.Report.bound_cycles r.Report.achieved_cycles r.Report.height_gap;
      if r.Report.pressure <> [] then begin
        add "      \"pressure\": {";
        List.iteri
          (fun j (cls, v) ->
            add "%s \"%s_maxlive\": %d" (if j = 0 then "" else ",")
              (json_escape cls) v)
          r.Report.pressure;
        add " },\n"
      end;
      let cycles key l =
        add "      \"%s\": {" key;
        List.iteri
          (fun j (m, c) ->
            add "%s \"%s\": %d" (if j = 0 then "" else ",") (json_escape m) c)
          l;
        add " }"
      in
      cycles "baseline_cycles" r.Report.baseline_cycles;
      add ",\n";
      cycles "reduced_cycles" r.Report.reduced_cycles;
      add " }")
    results;
  add "\n  ],\n  \"micro_ns_per_run\": {";
  List.iteri
    (fun i (name, est) ->
      add "%s\n    \"%s\": %s"
        (if i = 0 then "" else ",")
        (json_escape name)
        (match est with Some e -> Printf.sprintf "%.1f" e | None -> "null"))
    (List.sort compare micro);
  add "\n  }\n}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reading back                                                        *)

let read_file path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Some s
  end

let strip_comma v =
  if v <> "" && v.[String.length v - 1] = ',' then
    String.sub v 0 (String.length v - 1)
  else v

let read_scalar contents key =
  let prefix = Printf.sprintf "\"%s\":" key in
  let np = String.length prefix in
  List.find_map
    (fun line ->
      let line = String.trim line in
      if String.length line > np && String.sub line 0 np = prefix then
        float_of_string_opt
          (strip_comma (String.trim (String.sub line np (String.length line - np))))
      else None)
    (String.split_on_char '\n' contents)

let read_micro contents =
  let in_micro = ref false in
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if not !in_micro then begin
        if
          String.length line >= 18
          && String.sub line 0 18 = "\"micro_ns_per_run\""
        then in_micro := true;
        None
      end
      else if String.length line > 0 && line.[0] = '}' then begin
        in_micro := false;
        None
      end
      else
        match String.index_opt line ':' with
        | Some i when String.length line > 1 && line.[0] = '"' -> (
          match String.rindex_from_opt line (i - 1) '"' with
          | Some q when q > 0 ->
            let name = String.sub line 1 (q - 1) in
            let v =
              strip_comma
                (String.trim
                   (String.sub line (i + 1) (String.length line - i - 1)))
            in
            Option.map (fun f -> (name, f)) (float_of_string_opt v)
          | _ -> None)
        | _ -> None)
    (String.split_on_char '\n' contents)

(* The benchmarks array: each entry opens with [{ "name": "...", ] and
   carries one ["verify_s":]/["total_s":] line (the top-level totals are
   spelled [verify_total_s]/[suite_total_s], so the prefixes cannot
   collide, and the micro table is reached only after the array closes). *)
let read_workloads contents =
  let entries = ref [] in
  let current = ref None in
  let value_after prefix line =
    let np = String.length prefix in
    if String.length line > np && String.sub line 0 np = prefix then
      float_of_string_opt
        (strip_comma (String.trim (String.sub line np (String.length line - np))))
    else None
  in
  let flush () =
    match !current with
    | Some (name, Some v, Some t) -> entries := (name, v, t) :: !entries
    | _ -> ()
  in
  List.iter
    (fun line ->
      let line = String.trim line in
      let name_prefix = "{ \"name\": \"" in
      let np = String.length name_prefix in
      if String.length line > np && String.sub line 0 np = name_prefix then begin
        flush ();
        match String.index_from_opt line np '"' with
        | Some q -> current := Some (String.sub line np (q - np), None, None)
        | None -> current := None
      end
      else begin
        (match (value_after "\"verify_s\":" line, !current) with
        | Some v, Some (n, _, t) -> current := Some (n, Some v, t)
        | _ -> ());
        match (value_after "\"total_s\":" line, !current) with
        | Some t, Some (n, v, _) -> current := Some (n, v, Some t)
        | _ -> ()
      end)
    (String.split_on_char '\n' contents);
  flush ();
  List.rev !entries

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* A ["key": value] field anywhere in a single line (the height and
   pressure objects are rendered on one line each). *)
let field_after line key =
  let kp = Printf.sprintf "\"%s\":" key in
  match find_sub line kp with
  | None -> None
  | Some i ->
    let rest =
      String.trim
        (String.sub line
           (i + String.length kp)
           (String.length line - i - String.length kp))
    in
    let stop =
      match String.index_opt rest ' ' with
      | Some j -> j
      | None -> String.length rest
    in
    Some (strip_comma (String.sub rest 0 stop))

let float_field line key = Option.bind (field_after line key) float_of_string_opt
let int_field line key = Option.bind (field_after line key) int_of_string_opt

(* Per-benchmark single-line objects (["height": {...}] and
   ["pressure": {...}]) inside the entry whose ["name":] line last
   preceded them. *)
let read_entry_lines ~prefix ~f contents =
  let entries = ref [] in
  let current = ref None in
  List.iter
    (fun line ->
      let line = String.trim line in
      let name_prefix = "{ \"name\": \"" in
      let np = String.length name_prefix in
      if String.length line > np && String.sub line 0 np = name_prefix then begin
        match String.index_from_opt line np '"' with
        | Some q -> current := Some (String.sub line np (q - np))
        | None -> current := None
      end
      else if
        String.length line >= String.length prefix
        && String.sub line 0 (String.length prefix) = prefix
      then
        match !current with
        | None -> ()
        | Some name -> (
          match f line with
          | Some v -> entries := (name, v) :: !entries
          | None -> ()))
    (String.split_on_char '\n' contents);
  List.rev !entries

type height_entry = {
  gap : float;
  h_bound : int;
  h_achieved : int;
}

let read_height contents =
  read_entry_lines ~prefix:"\"height\":" contents ~f:(fun line ->
      match
        (float_field line "gap", int_field line "bound_cycles",
         int_field line "achieved_cycles")
      with
      | Some gap, Some h_bound, Some h_achieved ->
        Some { gap; h_bound; h_achieved }
      | _ -> None)

let read_pressure contents =
  read_entry_lines ~prefix:"\"pressure\":" contents ~f:(fun line ->
      let classes = [ "gpr"; "pred"; "btr" ] in
      let vals =
        List.filter_map
          (fun cls ->
            Option.map (fun v -> (cls, v)) (int_field line (cls ^ "_maxlive")))
          classes
      in
      if vals = [] then None else Some vals)

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
  let base_workloads = read_workloads baseline in
  let matched =
    List.filter_map
      (fun (name, cur_v, cur_t) ->
        List.find_map
          (fun (bname, base_v, base_t) ->
            if bname = name then Some (name, base_v, base_t, cur_v, cur_t)
            else None)
          base_workloads)
      current
  in
  let per_workload =
    List.concat_map
      (fun (name, base_v, base_t, cur_v, cur_t) ->
        [
          delta ~tolerance ~workload:name ~metric:"total_s" ~base:base_t
            ~cur:cur_t;
          delta ~tolerance ~workload:name ~metric:"verify_s" ~base:base_v
            ~cur:cur_v;
        ])
      matched
  in
  (* Suite wall time over the *matched* workloads, so gating a --quick
     run against a full-suite baseline compares like with like. *)
  let suite =
    match matched with
    | [] -> []
    | _ ->
      let base =
        List.fold_left (fun a (_, _, bt, _, _) -> a +. bt) 0.0 matched
      in
      let cur =
        List.fold_left (fun a (_, _, _, _, ct) -> a +. ct) 0.0 matched
      in
      [ delta ~tolerance ~workload:"(suite)" ~metric:"suite_total_s" ~base ~cur ]
  in
  per_workload @ suite

let missing_from_current ~baseline ~current =
  List.filter_map
    (fun (name, _, _) ->
      if List.exists (fun (n, _, _) -> n = name) current then None
      else Some name)
    (read_workloads baseline)

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

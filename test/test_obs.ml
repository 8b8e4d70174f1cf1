(* The observability subsystem: span nesting and ordering, counter
   monotonicity, the disabled-mode zero-allocation fast path, and the
   Chrome-trace export round-trip.  Also covers Bench_io, the bench
   harness's JSON writer/reader and perf-regression gate, and the
   Obs.Json printer both write with. *)

module Obs = Cpr_obs.Obs
module B = Cpr_pipeline.Bench_io

(* Telemetry state is process-global; leave it disabled and empty for
   whatever test runs next, even when this one fails. *)
let with_obs f () =
  Obs.set_enabled false;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let test_span_nesting () =
  Obs.set_enabled true;
  Obs.span "outer" (fun () ->
      Obs.span "inner-a" (fun () -> ignore (Sys.opaque_identity 1 : int));
      Obs.span "inner-b" (fun () -> ignore (Sys.opaque_identity 2 : int)));
  let evs = Obs.events () in
  Alcotest.(check (list string))
    "start order"
    [ "outer"; "inner-a"; "inner-b" ]
    (List.map (fun (e : Obs.event) -> e.Obs.name) evs);
  Alcotest.(check (list int))
    "depths" [ 0; 1; 1 ]
    (List.map (fun (e : Obs.event) -> e.Obs.depth) evs);
  let outer = List.hd evs in
  List.iter
    (fun (e : Obs.event) ->
      Alcotest.(check int) "same track" outer.Obs.track e.Obs.track;
      Alcotest.(check bool)
        "child within parent" true
        (Int64.compare e.Obs.start_ns outer.Obs.start_ns >= 0
        && Int64.compare
             (Int64.add e.Obs.start_ns e.Obs.dur_ns)
             (Int64.add outer.Obs.start_ns outer.Obs.dur_ns)
           <= 0))
    (List.tl evs)

let test_span_summary_merge () =
  Obs.set_enabled true;
  for _ = 1 to 3 do
    Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> ()))
  done;
  match Obs.Summary.tree () with
  | [ root ] ->
    Alcotest.(check string) "root name" "outer" root.Obs.Summary.name;
    Alcotest.(check int) "root count" 3 root.Obs.Summary.count;
    (match root.Obs.Summary.children with
    | [ child ] ->
      Alcotest.(check string) "child name" "inner" child.Obs.Summary.name;
      Alcotest.(check int) "child count" 3 child.Obs.Summary.count;
      Alcotest.(check bool)
        "child time within root" true
        (Int64.compare child.Obs.Summary.total_ns root.Obs.Summary.total_ns
        <= 0)
    | cs -> Alcotest.failf "expected 1 child, got %d" (List.length cs))
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

let test_span_exception () =
  Obs.set_enabled true;
  (try Obs.span "boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  match Obs.events () with
  | [ e ] -> Alcotest.(check string) "recorded anyway" "boom" e.Obs.name
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)

let test_counter_monotonic () =
  Obs.set_enabled true;
  let c = Obs.counter "t.mono" in
  let last = ref 0 in
  for i = 1 to 20 do
    if i mod 3 = 0 then Obs.add c 5 else Obs.incr c;
    let v = Obs.counter_value c in
    Alcotest.(check bool) "monotonic" true (v > !last);
    last := v
  done;
  (* Interned: a second lookup is the same counter, not a shadow. *)
  Obs.incr (Obs.counter "t.mono");
  Alcotest.(check int) "interned handle" (!last + 1) (Obs.counter_value c);
  Alcotest.(check bool)
    "listed" true
    (List.mem_assoc "t.mono" (Obs.counters ()))

let test_counter_reset () =
  Obs.set_enabled true;
  let c = Obs.counter "t.reset" in
  Obs.add c 7;
  Obs.reset ();
  Alcotest.(check int) "zeroed" 0 (Obs.counter_value c);
  Obs.set_enabled true;
  Obs.incr c;
  Alcotest.(check int) "handle survives reset" 1 (Obs.counter_value c)

let test_gauge_last_write_wins () =
  Obs.set_enabled true;
  Obs.gauge "t.g" 1.5;
  Obs.gauge "t.g" 2.5;
  Alcotest.(check (float 1e-9))
    "last value" 2.5
    (List.assoc "t.g" (Obs.gauges ()))

(* ------------------------------------------------------------------ *)
(* Disabled fast path                                                  *)

let test_disabled_no_effect () =
  let c = Obs.counter "t.off" in
  Obs.incr c;
  Obs.add c 100;
  Alcotest.(check int) "counter untouched" 0 (Obs.counter_value c);
  let r = Obs.span "off" (fun () -> 42) in
  Alcotest.(check int) "span is identity" 42 r;
  Alcotest.(check int) "no events" 0 (List.length (Obs.events ()))

let test_disabled_zero_alloc () =
  let c = Obs.counter "t.off2" in
  let f () = 0 in
  (* Warm-up takes any one-time allocation out of the measurement. *)
  for _ = 1 to 100 do
    Obs.incr c;
    ignore (Obs.span "off2" f : int)
  done;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Obs.incr c;
    Obs.add c 3;
    ignore (Obs.span "off2" f : int)
  done;
  let dw = Gc.minor_words () -. w0 in
  (* Even one boxed word per call would cost >= n words; allow slack for
     the Gc.minor_words calls themselves. *)
  if dw >= float_of_int n then
    Alcotest.failf "disabled path allocated %.0f minor words over %d calls" dw
      n

(* ------------------------------------------------------------------ *)
(* Trace export round-trip                                             *)

let test_trace_roundtrip () =
  Obs.set_enabled true;
  Obs.span
    ~args:[ ("k", "v\"with\\escapes\n") ]
    "outer"
    (fun () -> Obs.span "inner" (fun () -> ()));
  Obs.add (Obs.counter "t.rt") 7;
  Obs.gauge "t.rtg" 0.5;
  let s = Obs.Trace.to_string () in
  match Obs.Trace.parse s with
  | Error e -> Alcotest.failf "trace does not parse back: %s" e
  | Ok parsed ->
    let xs =
      List.filter (fun (p : Obs.Trace.parsed_event) -> p.Obs.Trace.pph = "X")
        parsed
    in
    Alcotest.(check (list string))
      "span events survive"
      [ "outer"; "inner" ]
      (List.map (fun (p : Obs.Trace.parsed_event) -> p.Obs.Trace.pname) xs);
    (* Timestamps and durations agree with the in-memory log to within
       the exporter's microsecond rounding. *)
    List.iter2
      (fun (e : Obs.event) (p : Obs.Trace.parsed_event) ->
        Alcotest.(check int) "tid is track" e.Obs.track p.Obs.Trace.ptid;
        let dur_us = Int64.to_float e.Obs.dur_ns /. 1000. in
        Alcotest.(check bool)
          "duration survives" true
          (Float.abs (p.Obs.Trace.pdur -. dur_us) <= 0.002))
      (Obs.events ()) xs;
    Alcotest.(check bool)
      "thread metadata present" true
      (List.exists
         (fun (p : Obs.Trace.parsed_event) -> p.Obs.Trace.pph = "M")
         parsed);
    Alcotest.(check bool)
      "counters exported" true
      (List.exists
         (fun (p : Obs.Trace.parsed_event) ->
           p.Obs.Trace.pph = "C" && p.Obs.Trace.pname = "t.rt")
         parsed)

let test_trace_parse_rejects_garbage () =
  (match Obs.Trace.parse "not json" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  match Obs.Trace.parse "{\"traceEvents\": [{\"name\": \"x\"" with
  | Ok _ -> Alcotest.fail "accepted truncated JSON"
  | Error _ -> ()

let test_json_printer () =
  let module J = Obs.Json in
  let show v = J.to_string v in
  Alcotest.(check (list string))
    "integers, shortest floats, non-finite as null"
    [ "3"; "-0.5"; "0.1"; "1e-07"; "null"; "\"a\\\"b\"" ]
    (List.map show
       [
         J.Num 3.; J.Num (-0.5); J.Num 0.1; J.Num 1e-7; J.Num nan; J.Str "a\"b";
       ]);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%h round-trips" f)
        true
        (J.parse (show (J.Num f)) = Ok (J.Num f)))
    [ 1. /. 3.; 2. /. 3.; 1e300; 123456789.123; 5e-324; Float.max_float ];
  Alcotest.(check string)
    "a short container stays on one line" {|{ "a": 1, "b": [], "c": {} }|}
    (show (J.Obj [ ("a", J.Num 1.); ("b", J.Arr []); ("c", J.Obj []) ]));
  let long =
    J.Obj
      [
        ("xs", J.Arr (List.init 30 (fun i -> J.Num (float_of_int i))));
        ("s", J.Str "short");
      ]
  in
  let text = show long in
  Alcotest.(check bool)
    "a long container breaks" true
    (String.contains text '\n');
  Alcotest.(check bool) "and parses back" true (J.parse text = Ok long)

(* ------------------------------------------------------------------ *)
(* Bench_io: escaping, --json target normalization, the perf gate      *)

let test_json_escape () =
  Alcotest.(check string)
    "quotes, backslashes, newlines" "a\\\"b\\\\c\\nd"
    (B.json_escape "a\"b\\c\nd");
  Alcotest.(check string)
    "control characters" "tab\\u0009bell\\u0007"
    (B.json_escape "tab\tbell\007")

let test_targets_bare_filename () =
  (* The historical bug: a bare --json filename went through
     Filename.dirname/concat and came back as "./BENCH_latest.json", so
     the dated = latest dedup failed and the file was written twice. *)
  let dated, latest =
    B.targets ~is_dir:false ~date:"2026-08-09" "BENCH_latest.json"
  in
  Alcotest.(check string) "dated is the given name" "BENCH_latest.json" dated;
  Alcotest.(check string) "latest not ./-prefixed" "BENCH_latest.json" latest

let test_targets_dir_and_nested () =
  let dated, latest = B.targets ~is_dir:true ~date:"2026-08-09" "_bench" in
  Alcotest.(check string)
    "dated under dir"
    (Filename.concat "_bench" "BENCH_2026-08-09.json")
    dated;
  Alcotest.(check string)
    "latest under dir"
    (Filename.concat "_bench" "BENCH_latest.json")
    latest;
  let dated, latest =
    B.targets ~is_dir:false ~date:"2026-08-09"
      (Filename.concat "out" "custom.json")
  in
  Alcotest.(check string)
    "explicit file kept"
    (Filename.concat "out" "custom.json")
    dated;
  Alcotest.(check string)
    "latest beside it"
    (Filename.concat "out" "BENCH_latest.json")
    latest

let bench_json entries =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\n  \"benchmarks\": [";
  List.iteri
    (fun i (name, verify_s, total_s) ->
      Buffer.add_string buf
        (Printf.sprintf
           "%s\n    { \"name\": \"%s\",\n      \"verify_s\": %.4f,\n      \
            \"total_s\": %.4f,\n      \"baseline_cycles\": { \"Seq\": 1 } }"
           (if i = 0 then "" else ",")
           name verify_s total_s))
    entries;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let parsed text =
  match B.parse text with
  | Ok b -> b
  | Error msg -> Alcotest.failf "bench JSON does not parse: %s" msg

let rows (b : B.baseline) =
  List.map
    (fun (w : B.workload) -> (w.B.name, w.B.verify_s, w.B.total_s))
    b.B.workloads

let test_read_workloads () =
  let s = bench_json [ ("w1", 0.1, 1.0); ("w2", 0.2, 2.0) ] in
  Alcotest.(check (list (triple string (float 1e-9) (float 1e-9))))
    "parsed back"
    [ ("w1", 0.1, 1.0); ("w2", 0.2, 2.0) ]
    (rows (parsed s))

let test_check_passes_on_equal () =
  let entries = [ ("w1", 0.1, 1.0); ("w2", 0.2, 2.0) ] in
  let baseline = parsed (bench_json entries) in
  let deltas =
    B.check ~tolerance:25.0 ~baseline
      ~current:(List.map (fun (n, v, t) -> (n, v, t)) entries)
  in
  Alcotest.(check int) "two workloads + suite row" 5 (List.length deltas);
  Alcotest.(check int) "no regressions" 0 (List.length (B.regressions deltas))

let test_check_fails_on_regression () =
  let baseline = parsed (bench_json [ ("w1", 0.1, 1.0) ]) in
  let deltas =
    B.check ~tolerance:25.0 ~baseline ~current:[ ("w1", 0.1, 2.0) ]
  in
  let regs = B.regressions deltas in
  Alcotest.(check bool) "gate trips" true (regs <> []);
  Alcotest.(check bool)
    "total_s row tripped" true
    (List.exists (fun (d : B.delta) -> d.B.metric = "total_s") regs)

let test_check_noise_floor () =
  (* 10x relative regression but only 9ms absolute: below the 20ms
     floor, so a shared-runner blip does not fail CI. *)
  let baseline = parsed (bench_json [ ("w1", 0.0, 0.001) ]) in
  let deltas =
    B.check ~tolerance:25.0 ~baseline ~current:[ ("w1", 0.0, 0.01) ]
  in
  Alcotest.(check int)
    "absolute floor holds" 0
    (List.length (B.regressions deltas))

let test_check_ignores_unmatched () =
  let baseline = parsed (bench_json [ ("w1", 0.1, 1.0) ]) in
  let deltas =
    B.check ~tolerance:25.0 ~baseline
      ~current:[ ("w1", 0.1, 1.0); ("only-in-current", 9.0, 9.0) ]
  in
  Alcotest.(check bool)
    "unmatched workload not compared" true
    (not
       (List.exists
          (fun (d : B.delta) -> d.B.workload = "only-in-current")
          deltas));
  Alcotest.(check int) "still clean" 0 (List.length (B.regressions deltas))

let test_check_warns_missing_baseline () =
  (* The gate skips baseline workloads with no current row (a --quick
     run against a full-suite baseline must still pass), but the bench
     driver warns with this list so a workload that silently stopped
     running is visible. *)
  let baseline =
    parsed (bench_json [ ("w1", 0.1, 1.0); ("gone", 0.2, 2.0) ])
  in
  Alcotest.(check (list string))
    "baseline-only workload reported" [ "gone" ]
    (B.missing_from_current ~baseline ~current:[ ("w1", 0.1, 1.0) ]);
  Alcotest.(check (list string))
    "full match reports nothing" []
    (B.missing_from_current ~baseline
       ~current:[ ("w1", 0.1, 1.0); ("gone", 0.2, 2.0) ]);
  let deltas =
    B.check ~tolerance:25.0 ~baseline ~current:[ ("w1", 0.1, 1.0) ]
  in
  Alcotest.(check int)
    "missing workload never regresses the gate" 0
    (List.length (B.regressions deltas))

let quality_json =
  (* The single-line height/pressure objects exactly as render writes
     them, inside a benchmarks entry. *)
  String.concat "\n"
    [
      "{";
      "  \"benchmarks\": [";
      "    { \"name\": \"w1\",";
      "      \"verify_s\": 0.1,";
      "      \"total_s\": 1.0,";
      "      \"height\": { \"bound_cycles\": 100, \"achieved_cycles\": 110, \
       \"gap\": 0.1000 },";
      "      \"pressure\": { \"gpr_maxlive\": 14, \"pred_maxlive\": 5, \
       \"btr_maxlive\": 4 },";
      "      \"baseline_cycles\": { \"Seq\": 1 } },";
      "    { \"name\": \"w2\",";
      "      \"verify_s\": 0.2,";
      "      \"total_s\": 2.0,";
      "      \"height\": { \"bound_cycles\": 50, \"achieved_cycles\": 50, \
       \"gap\": 0.0000 },";
      "      \"baseline_cycles\": { \"Seq\": 1 } }";
      "  ]";
      "}";
    ]

let test_read_height_and_pressure () =
  let b = parsed quality_json in
  let height (w : B.workload) = w.B.height in
  (match List.map height b.B.workloads with
  | [ Some h1; Some h2 ] ->
    Alcotest.(check (float 1e-9)) "w1 gap" 0.1 h1.B.gap;
    Alcotest.(check int) "w1 bound" 100 h1.B.h_bound;
    Alcotest.(check int) "w1 achieved" 110 h1.B.h_achieved;
    Alcotest.(check int) "w2 abs gap" 0 (h2.B.h_achieved - h2.B.h_bound)
  | hs -> Alcotest.failf "expected 2 height entries, got %d" (List.length hs));
  match List.map (fun (w : B.workload) -> w.B.pressure) b.B.workloads with
  | [ classes; [] ] ->
    Alcotest.(check (list (pair string int)))
      "w1 classes"
      [ ("gpr", 14); ("pred", 5); ("btr", 4) ]
      classes
  | _ ->
    Alcotest.fail "expected w1's pressure classes and none for w2 (it \
                   predates the object)"

let test_height_gap_floor () =
  let e gap h_bound h_achieved = { B.gap; h_bound; h_achieved } in
  (* The historical flap: a 1-cycle schedule blip on a tiny workload is
     a huge ratio move but must stay below the absolute floor. *)
  Alcotest.(check bool)
    "one cycle on a tiny workload is noise" false
    (B.height_regressed ~base:(e 0.0 10 10) ~cur:(e 0.1 10 11));
  Alcotest.(check bool)
    "two cycles past the ratio tolerance regresses" true
    (B.height_regressed ~base:(e 0.0 10 10) ~cur:(e 0.2 10 12));
  (* A large absolute move that barely changes the ratio on a big
     workload is below the percentage-point test. *)
  Alcotest.(check bool)
    "ratio within a point is not a regression" false
    (B.height_regressed ~base:(e 0.100 1000 1100) ~cur:(e 0.105 1000 1105));
  Alcotest.(check bool)
    "improvement never regresses" false
    (B.height_regressed ~base:(e 0.2 10 12) ~cur:(e 0.0 10 10))

let test_pressure_floor () =
  Alcotest.(check bool)
    "within the floor is noise" false
    (B.pressure_regressed ~base:10 ~cur:12);
  Alcotest.(check bool)
    "past the floor regresses" true
    (B.pressure_regressed ~base:10 ~cur:13);
  Alcotest.(check bool)
    "improvement never regresses" false
    (B.pressure_regressed ~base:12 ~cur:10)

let test_render_pqs_counters () =
  let contents =
    B.render
      ~pqs:
        [ ("pqs.memo_misses", 10); ("pqs.memo_hits", 90); ("pqs.queries", 55) ]
      ~date:"2026-08-09" ~domains:1 ~results:[] ~micro:[]
      ~par:((0., 0.), (0., 0.))
      ()
  in
  let pqs = (parsed contents).B.pqs in
  Alcotest.(check (option int))
    "memo_hits read back" (Some 90)
    (List.assoc_opt "pqs.memo_hits" pqs);
  Alcotest.(check (option int))
    "queries read back" (Some 55)
    (List.assoc_opt "pqs.queries" pqs);
  let without =
    B.render ~date:"2026-08-09" ~domains:1 ~results:[] ~micro:[]
      ~par:((0., 0.), (0., 0.))
      ()
  in
  Alcotest.(check (option int))
    "absent when not provided" None
    (List.assoc_opt "pqs.memo_hits" (parsed without).B.pqs)

(* One real Report.run result, rendered the way bench --json writes it. *)
let strcpy_result =
  lazy
    (let w = Option.get (Cpr_workloads.Registry.find "strcpy") in
     Cpr_pipeline.Report.run ~name:"strcpy"
       (w.Cpr_workloads.Workload.build ())
       (w.Cpr_workloads.Workload.inputs ()))

let render_results results =
  B.render
    ~pqs:[ ("pqs.queries", 7); ("pqs.memo_hits", 3) ]
    ~date:"2026-08-09" ~domains:2 ~results
    ~micro:[ ("bench/b", Some 12.34); ("bench/a", None) ]
    ~par:((1., 2.), (3., 4.))
    ()

let test_render_parse_roundtrip () =
  let module R = Cpr_pipeline.Report in
  let r = Lazy.force strcpy_result in
  let b = parsed (render_results [ r ]) in
  let four x = float_of_string (Printf.sprintf "%.4f" x) in
  Alcotest.(check (option (float 0.)))
    "verify_total_s" (Some (four r.R.verify_s)) b.B.verify_total_s;
  Alcotest.(check (list (pair string int)))
    "pqs, sorted by name"
    [ ("pqs.memo_hits", 3); ("pqs.queries", 7) ]
    b.B.pqs;
  Alcotest.(check (list (pair string (float 0.))))
    "micro without the null row" [ ("bench/b", 12.3) ] b.B.micro;
  match b.B.workloads with
  | [ w ] ->
    Alcotest.(check string) "name" "strcpy" w.B.name;
    Alcotest.(check (float 0.)) "verify_s" (four r.R.verify_s) w.B.verify_s;
    Alcotest.(check (float 0.)) "total_s" (four r.R.total_s) w.B.total_s;
    Alcotest.(check (list (pair string int)))
      "pressure" r.R.pressure w.B.pressure;
    (match w.B.height with
    | Some h ->
      Alcotest.(check (float 0.)) "gap" (four r.R.height_gap) h.B.gap;
      Alcotest.(check int) "bound" r.R.bound_cycles h.B.h_bound;
      Alcotest.(check int) "achieved" r.R.achieved_cycles h.B.h_achieved
    | None -> Alcotest.fail "height triple missing")
  | ws -> Alcotest.failf "expected 1 workload, got %d" (List.length ws)

(* The reader goes by JSON structure, not by line layout: the same
   document printed on one line, and a hand-written compact baseline,
   read back the same as the printer's layout. *)
let test_parse_layout_independent () =
  let text = render_results [ Lazy.force strcpy_result ] in
  let one_line =
    String.concat "" (List.map String.trim (String.split_on_char '\n' text))
  in
  Alcotest.(check bool)
    "the rendered document spans lines" true
    (String.contains (String.trim text) '\n');
  Alcotest.(check bool)
    "same record from one line" true
    (parsed one_line = parsed text);
  let compact =
    parsed {|{"benchmarks":[{"name":"strcpy","verify_s":0.1,"total_s":1.0}]}|}
  in
  Alcotest.(check (list string))
    "compact baseline gates its workload"
    [ "strcpy"; "strcpy"; "(suite)" ]
    (List.map
       (fun (d : B.delta) -> d.B.workload)
       (B.check ~tolerance:25.0 ~baseline:compact
          ~current:[ ("strcpy", 0.1, 1.0) ]))

let test_names_roundtrip () =
  let r = Lazy.force strcpy_result in
  let names = [ "q\"uote"; "back\\slash"; "both \"\\\" end" ] in
  let b =
    parsed
      (render_results
         (List.map (fun name -> { r with Cpr_pipeline.Report.name }) names))
  in
  Alcotest.(check (list string))
    "names unchanged" names
    (List.map (fun (w : B.workload) -> w.B.name) b.B.workloads)

let test_committed_baseline_parses () =
  match B.read_file "../BENCH_latest.json" with
  | None -> Alcotest.fail "BENCH_latest.json not found"
  | Some text ->
    let b = parsed text in
    Alcotest.(check int) "24 workloads" 24 (List.length b.B.workloads);
    Alcotest.(check bool) "pqs counters" true (b.B.pqs <> []);
    Alcotest.(check bool) "micro table" true (b.B.micro <> []);
    Alcotest.(check bool)
      "every workload has its height triple" true
      (List.for_all
         (fun (w : B.workload) -> w.B.height <> None)
         b.B.workloads)

let test_parse_errors () =
  let rejects what text =
    match B.parse text with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error msg -> msg
  in
  let truncated =
    rejects "truncated" {|{"benchmarks":[{"name":"strcpy","verify_s":0.1,|}
  in
  Alcotest.(check bool)
    "parse error names its byte offset" true
    (Astring_like.contains truncated "offset");
  ignore (rejects "not an object" "[1, 2]" : string);
  ignore
    (rejects "missing total_s"
       {|{"benchmarks":[{"name":"w","verify_s":0.1}]}|}
      : string);
  ignore
    (rejects "wrong type"
       {|{"benchmarks":[{"name":"w","verify_s":"fast","total_s":1}]}|}
      : string);
  ignore (rejects "pqs not integral" {|{"pqs":{"pqs.queries":1.5}}|} : string)

let suite =
  ( "obs",
    [
      Alcotest.test_case "span nesting and ordering" `Quick
        (with_obs test_span_nesting);
      Alcotest.test_case "summary merges by name path" `Quick
        (with_obs test_span_summary_merge);
      Alcotest.test_case "span records on exception" `Quick
        (with_obs test_span_exception);
      Alcotest.test_case "counter monotonicity" `Quick
        (with_obs test_counter_monotonic);
      Alcotest.test_case "reset zeroes, handles survive" `Quick
        (with_obs test_counter_reset);
      Alcotest.test_case "gauge last write wins" `Quick
        (with_obs test_gauge_last_write_wins);
      Alcotest.test_case "disabled mode records nothing" `Quick
        (with_obs test_disabled_no_effect);
      Alcotest.test_case "disabled mode does not allocate" `Quick
        (with_obs test_disabled_zero_alloc);
      Alcotest.test_case "trace JSON round-trip" `Quick
        (with_obs test_trace_roundtrip);
      Alcotest.test_case "trace parser rejects garbage" `Quick
        (with_obs test_trace_parse_rejects_garbage);
      Alcotest.test_case "json printer" `Quick test_json_printer;
      Alcotest.test_case "bench json_escape" `Quick test_json_escape;
      Alcotest.test_case "bench --json bare filename" `Quick
        test_targets_bare_filename;
      Alcotest.test_case "bench --json dir and nested" `Quick
        test_targets_dir_and_nested;
      Alcotest.test_case "bench read_workloads" `Quick test_read_workloads;
      Alcotest.test_case "perf gate passes on equal" `Quick
        test_check_passes_on_equal;
      Alcotest.test_case "perf gate trips on regression" `Quick
        test_check_fails_on_regression;
      Alcotest.test_case "perf gate noise floor" `Quick test_check_noise_floor;
      Alcotest.test_case "perf gate ignores unmatched" `Quick
        test_check_ignores_unmatched;
      Alcotest.test_case "perf gate lists missing baseline workloads" `Quick
        test_check_warns_missing_baseline;
      Alcotest.test_case "bench read_height / read_pressure" `Quick
        test_read_height_and_pressure;
      Alcotest.test_case "height-gap warning absolute floor" `Quick
        test_height_gap_floor;
      Alcotest.test_case "pressure warning absolute floor" `Quick
        test_pressure_floor;
      Alcotest.test_case "bench json pqs counters" `Quick
        test_render_pqs_counters;
      Alcotest.test_case "bench render/parse round-trip (strcpy)" `Quick
        test_render_parse_roundtrip;
      Alcotest.test_case "bench parse is layout independent" `Quick
        test_parse_layout_independent;
      Alcotest.test_case "bench workload names round-trip" `Quick
        test_names_roundtrip;
      Alcotest.test_case "bench committed BENCH_latest.json parses" `Quick
        test_committed_baseline_parses;
      Alcotest.test_case "bench parse errors" `Quick test_parse_errors;
    ] )

(* Observability-layer tests.

   The load-bearing property is that tracing is a pure observer: a traced
   run must be bit-exact with an untraced run on every backend, for any
   netlist, and must record a wave span for every executed wave.
   On top of that: the Chrome exporter must emit schema-valid traces whose
   per-track spans never overlap, the metrics aggregator must sum/track
   correctly, events must survive the DTRC wire format, and a worker crash
   mid-wave must still yield a well-formed (truncated) trace. *)

module Rng = Pytfhe_util.Rng
module Json = Pytfhe_util.Json
module Wire = Pytfhe_util.Wire
module Netlist = Pytfhe_circuit.Netlist
module Gates = Pytfhe_tfhe.Gates
module Trace = Pytfhe_obs.Trace
module Metrics = Pytfhe_obs.Metrics
module Executor = Pytfhe_backend.Executor
module Dist_eval = Pytfhe_backend.Dist_eval
module Pipeline = Pytfhe_core.Pipeline
module Server = Pytfhe_core.Server

let keys = lazy (Gates.key_gen (Rng.create ~seed:909 ()) Pytfhe_tfhe.Params.test)

let random_bits rng n = Array.init n (fun _ -> Rng.bool rng)

let wave_spans evs =
  List.filter (function Trace.Span { cat = "wave"; _ } -> true | _ -> false) evs

let check_valid what obs =
  match Trace.validate_chrome (Trace.to_chrome obs) with
  | Ok () -> ()
  | Error m -> Alcotest.fail (what ^ ": invalid Chrome trace: " ^ m)

let backends =
  [
    Server.Cpu;
    Server.Multicore { workers = 2 };
    Server.Multiprocess { workers = 2; config = None };
  ]

(* ------------------------------------------------------------------ *)
(* Traced-vs-untraced bit-exactness through the unified Server.run     *)
(* ------------------------------------------------------------------ *)

let test_traced_bit_exact =
  QCheck.Test.make ~name:"traced runs bit-exact with untraced on cpu/par/dist" ~count:2
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let sk, ck = Lazy.force keys in
      let net = Gen_circuit.random ~seed:(1 + seed) () in
      let compiled = Pipeline.compile ~optimize:false ~name:"obs-qcheck" net in
      let rng = Rng.create ~seed:(7000 + seed) () in
      let ins = random_bits rng (Netlist.input_count compiled.Pipeline.netlist) in
      let cts = Array.map (Gates.encrypt_bit rng sk) ins in
      let ref_out, _ = Server.run Server.Cpu ck compiled cts in
      List.for_all
        (fun backend ->
          let untraced, _ = Server.run backend ck compiled cts in
          let obs = Trace.create () in
          let traced, st =
            Server.run ~opts:{ Executor.default_opts with obs } backend ck compiled cts
          in
          let waves = Array.length st.Executor.wave_width in
          let spans = List.length (wave_spans (Trace.events obs)) in
          if untraced <> ref_out then
            QCheck.Test.fail_reportf "untraced %s disagrees with cpu"
              (Server.exec_backend_name backend);
          if traced <> ref_out then
            QCheck.Test.fail_reportf "traced %s disagrees with untraced"
              (Server.exec_backend_name backend);
          if waves = 0 || spans < waves then
            QCheck.Test.fail_reportf "%s: %d wave spans for %d waves"
              (Server.exec_backend_name backend) spans waves;
          (match Trace.validate_chrome (Trace.to_chrome obs) with
          | Ok () -> ()
          | Error m ->
            QCheck.Test.fail_reportf "%s: invalid trace: %s"
              (Server.exec_backend_name backend) m);
          true)
        backends)

(* ------------------------------------------------------------------ *)
(* Exporter golden tests                                               *)
(* ------------------------------------------------------------------ *)

let test_chrome_export () =
  let obs = Trace.create () in
  let tr = Trace.new_track obs ~name:"golden" in
  Trace.span tr ~name:"a" ~t0:0.0 ~t1:0.001;
  Trace.span tr ~cat:"wave" ~name:"b" ~t0:0.002 ~t1:0.003;
  Trace.counter tr ~name:"boots" 2.0;
  Trace.counter tr ~name:"boots" 3.0;
  Trace.gauge tr ~name:"margin" 1.5;
  Trace.instant tr ~name:"tick";
  let json = Trace.to_chrome obs in
  (match Trace.validate_chrome json with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("golden trace rejected: " ^ m));
  let evs = Option.get (Json.to_list (Option.get (Json.member "traceEvents" json))) in
  (* 2 spans + 2 counter samples + 1 gauge + 1 instant + thread metadata *)
  Alcotest.(check bool) "all events exported" true (List.length evs >= 7);
  let phs =
    List.filter_map (fun e -> Option.bind (Json.member "ph" e) Json.to_str) evs
  in
  List.iter
    (fun ph -> Alcotest.(check bool) ("phase " ^ ph ^ " present") true (List.mem ph phs))
    [ "X"; "C"; "i"; "M" ];
  (* serialize/parse round trip survives validation too *)
  match Trace.validate_chrome (Json.parse (Json.to_string json)) with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("reparsed trace rejected: " ^ m)

let mk_span name ts dur =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "X");
      ("ts", Json.Number ts);
      ("dur", Json.Number dur);
      ("pid", Json.Number 1.0);
      ("tid", Json.Number 1.0);
    ]

let expect_invalid what json =
  match Trace.validate_chrome json with
  | Error _ -> ()
  | Ok () -> Alcotest.fail (what ^ ": bad trace accepted")

let test_chrome_validator_rejects () =
  expect_invalid "no traceEvents" (Json.Obj [ ("foo", Json.Number 1.0) ]);
  expect_invalid "overlapping spans on one track"
    (Json.Obj [ ("traceEvents", Json.List [ mk_span "a" 0.0 10.0; mk_span "b" 5.0 10.0 ]) ]);
  expect_invalid "unsorted spans on one track"
    (Json.Obj [ ("traceEvents", Json.List [ mk_span "a" 20.0 5.0; mk_span "b" 0.0 5.0 ]) ]);
  expect_invalid "negative duration"
    (Json.Obj [ ("traceEvents", Json.List [ mk_span "a" 0.0 (-1.0) ]) ]);
  expect_invalid "event missing ph"
    (Json.Obj
       [
         ( "traceEvents",
           Json.List
             [ Json.Obj [ ("name", Json.String "a"); ("ts", Json.Number 0.0);
                          ("pid", Json.Number 1.0); ("tid", Json.Number 1.0) ] ] );
       ]);
  (* the same two spans on DIFFERENT tracks are fine *)
  let b = mk_span "b" 5.0 10.0 in
  let b' =
    match b with
    | Json.Obj fields ->
      Json.Obj (List.map (function "tid", _ -> ("tid", Json.Number 2.0) | f -> f) fields)
    | _ -> assert false
  in
  match
    Trace.validate_chrome
      (Json.Obj [ ("traceEvents", Json.List [ mk_span "a" 0.0 10.0; b' ]) ])
  with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("cross-track overlap wrongly rejected: " ^ m)

(* ------------------------------------------------------------------ *)
(* Metrics aggregation                                                 *)
(* ------------------------------------------------------------------ *)

let test_metrics_aggregation () =
  let obs = Trace.create () in
  let tr = Trace.new_track obs ~name:"m" in
  Trace.counter tr ~name:"bootstraps" 3.0;
  Trace.counter tr ~name:"bootstraps" 4.0;
  Trace.gauge tr ~name:"noise_margin_sigma" 2.0;
  Trace.gauge tr ~name:"noise_margin_sigma" 1.0;
  Trace.span tr ~cat:"wave" ~name:"wave" ~t0:0.0 ~t1:0.5;
  Trace.span tr ~cat:"wave" ~name:"wave" ~t0:0.5 ~t1:0.75;
  let evs = Trace.events obs in
  Alcotest.(check (float 1e-9)) "counters summed" 7.0
    (List.assoc "bootstraps" (Metrics.counters evs));
  let g = List.assoc "noise_margin_sigma" (Metrics.gauges evs) in
  Alcotest.(check int) "gauge count" 2 g.Metrics.count;
  Alcotest.(check (float 1e-9)) "gauge min" 1.0 g.Metrics.min;
  Alcotest.(check (float 1e-9)) "gauge max" 2.0 g.Metrics.max;
  Alcotest.(check (float 1e-9)) "gauge last" 1.0 g.Metrics.last;
  let n, total = List.assoc "wave" (Metrics.span_totals evs) in
  Alcotest.(check int) "span occurrences" 2 n;
  Alcotest.(check (float 1e-9)) "span total seconds" 0.75 total;
  let j = Metrics.to_json ~extra:[ ("backend", Json.String "test") ] obs in
  Alcotest.(check bool) "counters object present" true (Json.member "counters" j <> None);
  Alcotest.(check bool) "gauges object present" true (Json.member "gauges" j <> None);
  Alcotest.(check bool) "spans object present" true (Json.member "spans" j <> None);
  Alcotest.(check (option int)) "nothing dropped" (Some 0)
    (Option.bind (Json.member "dropped_events" j) Json.to_int);
  Alcotest.(check (option string)) "extra merged" (Some "test")
    (Option.bind (Json.member "backend" j) Json.to_str)

(* ------------------------------------------------------------------ *)
(* Disabled sink and wire round trip                                   *)
(* ------------------------------------------------------------------ *)

let test_null_sink () =
  Alcotest.(check bool) "null is disabled" false (Trace.enabled Trace.null);
  let tr = Trace.new_track Trace.null ~name:"x" in
  Trace.span tr ~name:"s" ~t0:0.0 ~t1:1.0;
  Trace.counter tr ~name:"c" 1.0;
  Trace.gauge tr ~name:"g" 1.0;
  Trace.instant tr ~name:"i";
  Trace.drain Trace.null;
  Alcotest.(check int) "no events on null" 0 (List.length (Trace.events Trace.null));
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped Trace.null)

let test_event_wire_roundtrip () =
  let evs =
    [
      Trace.Span { track = 3; name = "s"; cat = "wave"; t0 = 0.25; t1 = 0.5 };
      Trace.Counter { track = 1; name = "c"; t = 0.1; value = 42.0 };
      Trace.Gauge { track = 0; name = "g"; t = 0.2; value = -1.5 };
      Trace.Instant { track = 2; name = "i"; t = 0.3 };
    ]
  in
  let buf = Buffer.create 64 in
  List.iter (Trace.write_event buf) evs;
  let r = Wire.reader_of_string (Buffer.contents buf) in
  let back = List.map (fun _ -> Trace.read_event r) evs in
  Alcotest.(check bool) "events survive the DTRC wire format" true (back = evs);
  Alcotest.(check bool) "garbage tag raises Corrupt" true
    (let bad = Buffer.create 4 in
     Wire.write_u8 bad 0xEE;
     try
       ignore (Trace.read_event (Wire.reader_of_string (Buffer.contents bad)));
       false
     with Wire.Corrupt _ -> true)

(* ------------------------------------------------------------------ *)
(* Compile-phase spans                                                 *)
(* ------------------------------------------------------------------ *)

let test_pipeline_spans () =
  let obs = Trace.create () in
  let _c = Pipeline.compile ~obs ~name:"traced-compile" (Gen_circuit.random ~seed:5 ()) in
  let names =
    List.filter_map
      (function Trace.Span { name; cat = "compile"; _ } -> Some name | _ -> None)
      (Trace.events obs)
  in
  List.iter
    (fun p -> Alcotest.(check bool) ("compile phase " ^ p ^ " has a span") true (List.mem p names))
    [ "optimize"; "assemble"; "stats"; "levelize" ];
  check_valid "compile trace" obs

(* ------------------------------------------------------------------ *)
(* Dist_eval: worker crash mid-wave still yields a well-formed trace    *)
(* ------------------------------------------------------------------ *)

let test_dist_crash_trace () =
  let sk, ck = Lazy.force keys in
  let net = Gen_circuit.wide ~width:6 ~depth:3 in
  let rng = Rng.create ~seed:52 () in
  let ins = random_bits rng 7 in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  let seq_out = Run_net.reference ck net cts in
  let obs = Trace.create () in
  let cfg =
    Dist_eval.config
      ~faults:[ { Dist_eval.victim = 1; after_requests = 2; action = Dist_eval.Crash } ]
      3
  in
  let outs, st = Run_net.dist ~opts:{ Executor.default_opts with obs } cfg ck net cts in
  Alcotest.(check bool) "bit-exact despite crash" true (outs = seq_out);
  Alcotest.(check int) "one worker lost" 1 st.Dist_eval.workers_lost;
  let evs = Trace.events obs in
  Alcotest.(check bool) "wave spans survived the crash" true (wave_spans evs <> []);
  check_valid "crash-truncated trace" obs

let test_dist_traced_stats () =
  (* Worker-side spans travel back over DTRC frames and land on the
     coordinator's per-worker tracks; coordinator counters cover the wire. *)
  let sk, ck = Lazy.force keys in
  let net = Gen_circuit.wide ~width:4 ~depth:2 in
  let rng = Rng.create ~seed:53 () in
  let ins = random_bits rng 5 in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  let obs = Trace.create () in
  let _, st =
    Run_net.dist ~opts:{ Executor.default_opts with obs } (Dist_eval.config 2) ck net cts
  in
  let evs = Trace.events obs in
  let shard_spans =
    List.filter (function Trace.Span { cat = "shard"; _ } -> true | _ -> false) evs
  in
  Alcotest.(check int) "worker shard spans shipped back" st.Dist_eval.requests_sent
    (List.length shard_spans);
  let cs = Metrics.counters evs in
  Alcotest.(check bool) "bytes_to_workers counted" true
    (List.assoc_opt "bytes_to_workers" cs <> None);
  Alcotest.(check (float 1.0)) "bootstrap counter matches stats"
    (float_of_int st.Dist_eval.bootstraps_executed)
    (List.assoc "bootstraps" cs);
  check_valid "dist trace" obs

(* Must run before anything else: in a spawned worker process this serves
   the gate protocol and never returns. *)
let () = Dist_eval.worker_entry ()

let () =
  Alcotest.run "obs"
    [
      ( "bit-exact",
        [ QCheck_alcotest.to_alcotest test_traced_bit_exact ] );
      ( "exporter",
        [
          Alcotest.test_case "chrome golden" `Quick test_chrome_export;
          Alcotest.test_case "validator rejects malformed" `Quick test_chrome_validator_rejects;
        ] );
      ( "metrics", [ Alcotest.test_case "aggregation" `Quick test_metrics_aggregation ] );
      ( "sink",
        [
          Alcotest.test_case "null sink is inert" `Quick test_null_sink;
          Alcotest.test_case "event wire roundtrip" `Quick test_event_wire_roundtrip;
        ] );
      ( "pipeline", [ Alcotest.test_case "compile phase spans" `Quick test_pipeline_spans ] );
      ( "dist",
        [
          Alcotest.test_case "traced run ships worker spans" `Slow test_dist_traced_stats;
          Alcotest.test_case "crash mid-wave yields valid trace" `Slow test_dist_crash_trace;
        ] );
    ]

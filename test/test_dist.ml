(* Differential and fault-injection tests for the multi-process executor.

   The cross-backend suite is the repo's strongest correctness statement:
   the plain netlist walk, the plaintext binary stream, the in-order
   encrypted stream, and the sequential, domain-parallel and multi-process
   wave executors must agree bit-for-bit on seeded random DAGs.  The fault suite then breaks the distributed one on
   purpose (real SIGKILL, real truncated frames, real stalls) and checks
   the coordinator recovers without losing bit-exactness. *)

module Rng = Pytfhe_util.Rng
module Netlist = Pytfhe_circuit.Netlist
module Binary = Pytfhe_circuit.Binary
module Gates = Pytfhe_tfhe.Gates
open Pytfhe_backend

let keys = lazy (Gates.key_gen (Rng.create ~seed:909 ()) Pytfhe_tfhe.Params.test)

let random_bits rng n = Array.init n (fun _ -> Rng.bool rng)

let bopts b = { Executor.default_opts with batch = Some b }

(* The in-order scalar reference every wave executor must reproduce. *)
let reference = Run_net.reference

(* ------------------------------------------------------------------ *)
(* Cross-backend differential suite                                    *)
(* ------------------------------------------------------------------ *)

let test_cross_backend =
  QCheck.Test.make ~name:"cross-backend: plain/stream/tfhe/par/dist bit-exact, workers 1/2/4"
    ~count:3
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (s1, s2) ->
      let sk, ck = Lazy.force keys in
      let net = Gen_circuit.random ~seed:(1 + s1) () in
      let rng = Rng.create ~seed:(2000 + s2) () in
      let ins = random_bits rng (Netlist.input_count net) in
      let plain = Array.of_list (List.map snd (Plain_eval.run net ins)) in
      let stream = Stream_exec.run_bits (Binary.assemble net) ins in
      if stream <> plain then QCheck.Test.fail_report "stream_exec disagrees with plain_eval";
      let cts = Array.map (Gates.encrypt_bit rng sk) ins in
      let seq_out = reference ck net cts in
      if Array.map (Gates.decrypt_bit sk) seq_out <> plain then
        QCheck.Test.fail_report "in-order encrypted stream disagrees with plain_eval";
      if fst (Run_net.cpu ck net cts) <> seq_out then
        QCheck.Test.fail_report "sequential wave executor disagrees with the reference";
      List.for_all
        (fun workers ->
          let par_out, _ = Run_net.par ~workers ck net cts in
          let dist_out, st = Run_net.dist (Dist_eval.config workers) ck net cts in
          par_out = seq_out && dist_out = seq_out
          && st.Dist_eval.workers_started = workers
          && st.Dist_eval.workers_lost = 0)
        [ 1; 2; 4 ])

(* The LUT analog of the cross-backend suite, doubled: the same seeded
   LUT-bearing DAG is run as generated AND after Opt.lut_cover, and every
   executor — plain walk, streamed binary, in-order encrypted, sequential
   (per-gate, batched), domain-parallel (per-gate, batched), multi-process
   — must reproduce the
   original netlist's plaintext truth bit-for-bit on both versions. *)
let test_cross_backend_lut =
  QCheck.Test.make
    ~name:"cross-backend LUT: original and lut_cover-ed bit-exact on all executors" ~count:2
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (s1, s2) ->
      let sk, ck = Lazy.force keys in
      let net = Gen_circuit.random_lut ~seed:(1 + s1) () in
      let covered, _ = Pytfhe_synth.Opt.lut_cover net in
      let rng = Rng.create ~seed:(3000 + s2) () in
      let ins = random_bits rng (Netlist.input_count net) in
      let truth = Array.of_list (List.map snd (Plain_eval.run net ins)) in
      List.for_all
        (fun n ->
          let plain = Array.of_list (List.map snd (Plain_eval.run n ins)) in
          if plain <> truth then QCheck.Test.fail_report "lut_cover changed the function";
          let stream = Stream_exec.run_bits (Binary.assemble n) ins in
          if stream <> truth then
            QCheck.Test.fail_report "stream_exec disagrees with plain_eval on a LUT netlist";
          let cts = Array.map (Gates.encrypt_bit rng sk) ins in
          let seq_out = reference ck n cts in
          if Array.map (Gates.decrypt_bit sk) seq_out <> truth then
            QCheck.Test.fail_report
              "in-order encrypted stream disagrees with plain_eval on a LUT netlist";
          let scalar, _ = Run_net.cpu ck n cts in
          let batched, _ = Run_net.cpu ~opts:(bopts 3) ck n cts in
          if scalar <> seq_out || batched <> seq_out then
            QCheck.Test.fail_report "sequential scalar/batched paths disagree on a LUT netlist";
          List.for_all
            (fun workers ->
              let par_out, _ = Run_net.par ~workers ck n cts in
              let par_batched, _ = Run_net.par ~workers ~opts:(bopts 3) ck n cts in
              let dist_out, st = Run_net.dist (Dist_eval.config workers) ck n cts in
              par_out = seq_out && par_batched = seq_out && dist_out = seq_out
              && st.Dist_eval.workers_lost = 0)
            [ 1; 2; 4 ])
        [ net; covered ])

let test_dist_stats_and_validation () =
  let sk, ck = Lazy.force keys in
  let net = Gen_circuit.wide ~width:4 ~depth:2 in
  let rng = Rng.create ~seed:41 () in
  let ins = random_bits rng 5 in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  let seq_out, seq_stats = Run_net.cpu ck net cts in
  let outs, st = Run_net.dist (Dist_eval.config 2) ck net cts in
  Alcotest.(check bool) "ciphertexts identical" true (outs = seq_out);
  Alcotest.(check int) "bootstrap totals agree" seq_stats.Tfhe_eval.bootstraps_executed
    st.Dist_eval.bootstraps_executed;
  Alcotest.(check int) "two workers forked" 2 st.Dist_eval.workers_started;
  Alcotest.(check bool) "at least one request per wave" true
    (st.Dist_eval.requests_sent >= Array.length st.Dist_eval.wave_wall);
  Alcotest.(check bool) "keyset shipped" true (st.Dist_eval.keyset_bytes > 0);
  Alcotest.(check bool) "bytes flowed both ways" true
    (st.Dist_eval.bytes_to_workers > 0 && st.Dist_eval.bytes_from_workers > 0);
  Alcotest.(check bool) "worker compute time reported" true (st.Dist_eval.compute_time > 0.0);
  Alcotest.(check bool) "rejects workers < 1" true
    (try ignore (Dist_eval.config 0); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "rejects input arity mismatch" true
    (try ignore (Run_net.dist (Dist_eval.config 2) ck net (Array.sub cts 0 2)); false
     with Invalid_argument _ -> true)

(* Shards are cut at rotation units, so the two cells over one operand
   tuple share one rotation on a worker just as on cpu and par: six cells,
   five rotations, for any worker count. *)
let test_dist_lut_rotations () =
  let sk, ck = Lazy.force keys in
  let net = Gen_circuit.lut_waves () in
  let rng = Rng.create ~seed:406 () in
  let cts = Array.map (Gates.encrypt_bit rng sk) (random_bits rng 3) in
  let seq_out = reference ck net cts in
  List.iter
    (fun workers ->
      let outs, st = Run_net.dist (Dist_eval.config workers) ck net cts in
      Alcotest.(check bool)
        (Printf.sprintf "%d workers bit-exact with the in-order reference" workers)
        true (outs = seq_out);
      Alcotest.(check int)
        (Printf.sprintf "%d workers count the shared rotation once" workers)
        5 st.Dist_eval.bootstraps_executed)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(* Every fault scenario runs the same circuit and demands the same
   outputs as the sequential executor; only the stats differ. *)
let run_with_faults ?request_timeout ?max_retries ?backoff ~workers faults =
  let sk, ck = Lazy.force keys in
  let net = Gen_circuit.wide ~width:6 ~depth:3 in
  let rng = Rng.create ~seed:42 () in
  let ins = random_bits rng 7 in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  let seq_out = reference ck net cts in
  let cfg = Dist_eval.config ?request_timeout ?max_retries ?backoff ~faults workers in
  let outs, st = Run_net.dist cfg ck net cts in
  Alcotest.(check bool) "outputs bit-exact despite fault" true (outs = seq_out);
  st

let test_fault_sigkill_mid_wave () =
  (* Worker 1 SIGKILLs itself while holding its second shard; the shard
     must be reassigned to a survivor and the run must stay bit-exact. *)
  let st =
    run_with_faults ~workers:3
      [ { Dist_eval.victim = 1; after_requests = 2; action = Dist_eval.Crash } ]
  in
  Alcotest.(check int) "one worker lost" 1 st.Dist_eval.workers_lost;
  Alcotest.(check bool) "crashed shard reassigned" true (st.Dist_eval.reassignments >= 1)

let test_fault_flipped_frame () =
  (* A framing-correct reply with a corrupted payload must be rejected and
     re-requested — never decoded into a wrong ciphertext, never a hang. *)
  let st =
    run_with_faults ~workers:2
      [ { Dist_eval.victim = 0; after_requests = 1; action = Dist_eval.Flip_reply } ]
  in
  Alcotest.(check bool) "corrupt frame counted" true (st.Dist_eval.corrupt_frames >= 1);
  Alcotest.(check bool) "shard re-requested" true (st.Dist_eval.retries >= 1);
  Alcotest.(check int) "worker survives a flipped frame" 0 st.Dist_eval.workers_lost

let test_fault_truncated_frame () =
  (* Half a frame then EOF: the coordinator must treat it as a dead
     worker, not block forever waiting for the missing bytes. *)
  let st =
    run_with_faults ~workers:2
      [ { Dist_eval.victim = 1; after_requests = 1; action = Dist_eval.Truncate_reply } ]
  in
  Alcotest.(check int) "truncating worker declared lost" 1 st.Dist_eval.workers_lost;
  Alcotest.(check bool) "its shard reassigned" true (st.Dist_eval.reassignments >= 1)

let test_fault_stall_retries () =
  (* A worker that sleeps past the request timeout but eventually answers:
     the deadline must be extended (retry path), not the worker killed. *)
  let st =
    run_with_faults ~workers:2 ~request_timeout:0.15 ~max_retries:3 ~backoff:2.0
      [ { Dist_eval.victim = 0; after_requests = 1; action = Dist_eval.Stall 0.4 } ]
  in
  Alcotest.(check bool) "timeout extended at least once" true (st.Dist_eval.retries >= 1);
  Alcotest.(check int) "slow worker not declared lost" 0 st.Dist_eval.workers_lost

let test_fault_all_workers_lost () =
  let sk, ck = Lazy.force keys in
  let net = Gen_circuit.wide ~width:2 ~depth:1 in
  let rng = Rng.create ~seed:43 () in
  let cts = Array.map (Gates.encrypt_bit rng sk) (random_bits rng 3) in
  let cfg =
    Dist_eval.config ~faults:[ { Dist_eval.victim = 0; after_requests = 1; action = Dist_eval.Crash } ] 1
  in
  Alcotest.(check bool) "single worker crash raises Failure" true
    (try ignore (Run_net.dist cfg ck net cts); false with Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* DHEL transform negotiation                                          *)
(* ------------------------------------------------------------------ *)

module Params = Pytfhe_tfhe.Params
module Transform = Pytfhe_fft.Transform
module Wire = Pytfhe_util.Wire

(* A second keyset at the same parameters but with the NTT backend, so the
   mismatch can be pinned in both directions. *)
let ntt_keys =
  lazy
    (Gates.key_gen (Rng.create ~seed:909 ())
       (Params.with_transform Pytfhe_tfhe.Params.test Transform.Ntt))

let hello_for ~transform ck =
  let buf = Buffer.create (1 lsl 16) in
  Gates.write_cloud_keyset buf ck;
  Bytes.to_string
    (Dist_eval.hello_bytes ~index:0 ~transform ~obs:Pytfhe_obs.Trace.null ~faults:[]
       ~keyset_blob:(Buffer.contents buf))

let parses_to ~transform ck =
  let _, _, _, _, ck' =
    Dist_eval.parse_hello (Wire.reader_of_string (hello_for ~transform ck))
  in
  ck'.Gates.cloud_params.Params.transform

let rejects_hello ~transform ck =
  match Dist_eval.parse_hello (Wire.reader_of_string (hello_for ~transform ck)) with
  | _ -> false
  | exception Wire.Corrupt _ -> true

(* A worker must reject a coordinator whose DHEL transform tag disagrees
   with the transform recorded in the shipped keyset's own parameters —
   in both directions — and accept both matched pairings. *)
let test_dhel_transform_negotiation () =
  let _, fft_ck = Lazy.force keys in
  let _, ntt_ck = Lazy.force ntt_keys in
  Alcotest.(check bool) "fft tag + fft keyset parses" true
    (parses_to ~transform:Transform.Fft fft_ck = Transform.Fft);
  Alcotest.(check bool) "ntt tag + ntt keyset parses" true
    (parses_to ~transform:Transform.Ntt ntt_ck = Transform.Ntt);
  Alcotest.(check bool) "ntt tag over fft keyset rejected" true
    (rejects_hello ~transform:Transform.Ntt fft_ck);
  Alcotest.(check bool) "fft tag over ntt keyset rejected" true
    (rejects_hello ~transform:Transform.Fft ntt_ck)

(* End-to-end under the NTT backend: the coordinator tags its own
   transform, workers accept it, and the distributed run stays bit-exact
   with the sequential executor. *)
let test_dist_ntt_end_to_end () =
  let sk, ck = Lazy.force ntt_keys in
  let net = Gen_circuit.wide ~width:4 ~depth:2 in
  let rng = Rng.create ~seed:77 () in
  let ins = random_bits rng 5 in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  let seq_out = reference ck net cts in
  let outs, st = Run_net.dist (Dist_eval.config 2) ck net cts in
  Alcotest.(check bool) "ntt dist bit-exact with sequential" true (outs = seq_out);
  Alcotest.(check int) "no workers lost" 0 st.Dist_eval.workers_lost

(* Must run before anything else: in a spawned worker process this serves
   the gate protocol and never returns. *)
let () = Dist_eval.worker_entry ()

let () =
  Alcotest.run "dist"
    [
      ( "cross-backend",
        [
          QCheck_alcotest.to_alcotest test_cross_backend;
          QCheck_alcotest.to_alcotest test_cross_backend_lut;
          Alcotest.test_case "stats and validation" `Slow test_dist_stats_and_validation;
          Alcotest.test_case "LUT rotation units shared" `Slow test_dist_lut_rotations;
        ] );
      ( "faults",
        [
          Alcotest.test_case "sigkill mid-wave" `Slow test_fault_sigkill_mid_wave;
          Alcotest.test_case "flipped reply frame" `Slow test_fault_flipped_frame;
          Alcotest.test_case "truncated reply frame" `Slow test_fault_truncated_frame;
          Alcotest.test_case "stalled worker retries" `Slow test_fault_stall_retries;
          Alcotest.test_case "all workers lost" `Slow test_fault_all_workers_lost;
        ] );
      ( "transform",
        [
          Alcotest.test_case "DHEL transform negotiation" `Quick
            test_dhel_transform_negotiation;
          Alcotest.test_case "ntt end to end" `Slow test_dist_ntt_end_to_end;
        ] );
    ]

(* Differential suite for the streaming compiler and executors.

   The contract under test: [Pipeline.compile_stream] over the same
   construction is byte-identical to the one-shot unoptimized compile, for
   any CSE window; and every executor's [run_stream] over the emitted
   stream, for any segment window, is bit-identical to the in-order
   scalar reference ([Stream_exec.run_encrypted]) and decrypts to the
   netlist's plaintext truth — including LUT-covered circuits — across
   Cpu/Par/Dist. *)

module Netlist = Pytfhe_circuit.Netlist
module Binary = Pytfhe_circuit.Binary
module Levelize = Pytfhe_circuit.Levelize
module Rng = Pytfhe_util.Rng
module Pipeline = Pytfhe_core.Pipeline
open Pytfhe_backend

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

(* Replay [src] into [dst]: declare the same inputs, instantiate the whole
   DAG once, and mark outputs through the id map.  With [dst]'s
   construction-time optimizations off the replay is node-for-node, so
   the two netlists assemble to the same bytes. *)
let replay src dst =
  let args =
    Array.of_list (List.map (fun (name, _) -> Netlist.input dst name) (Netlist.inputs src))
  in
  let map = Netlist.instantiate dst ~template:src ~args in
  List.iter (fun (name, id) -> Netlist.mark_output dst name map.(id)) (Netlist.outputs src)

let stream_bytes ?window net =
  Pipeline.compile_stream_to_bytes ~hash_consing:false ~fold_constants:false ?window
    ~name:"stream" (replay net)

(* A chunked pull source whose chunk size is deliberately not a multiple
   of the 16-byte instruction size, so instructions straddle chunks. *)
let source_of_bytes ?(chunk = 40) b =
  let pos = ref 0 in
  fun () ->
    if !pos >= Bytes.length b then None
    else begin
      let n = min chunk (Bytes.length b - !pos) in
      let s = Bytes.sub b !pos n in
      pos := !pos + n;
      Some s
    end

(* ------------------------------------------------------------------ *)
(* Streamed bytes vs one-shot compile                                  *)
(* ------------------------------------------------------------------ *)

let check_byte_identity net =
  let reference = Pipeline.compile ~optimize:false ~name:"oneshot" net in
  let unwindowed, report = stream_bytes net in
  if not (Bytes.equal unwindowed reference.Pipeline.binary) then
    QCheck.Test.fail_report "unwindowed stream differs from one-shot binary";
  (* Windowing only bounds the CSE tables; the emitted stream is the
     construction order either way. *)
  let windowed, wreport = stream_bytes ~window:4 net in
  if not (Bytes.equal windowed reference.Pipeline.binary) then
    QCheck.Test.fail_report "windowed stream differs from one-shot binary";
  let sched = reference.Pipeline.schedule in
  report.Pipeline.depth = sched.Levelize.depth
  && report.Pipeline.bootstraps = sched.Levelize.total_bootstraps
  && report.Pipeline.max_width = Levelize.max_width sched
  && report.Pipeline.bytes_emitted = Bytes.length reference.Pipeline.binary
  && wreport.Pipeline.gates = report.Pipeline.gates

let test_stream_bytes_random =
  QCheck.Test.make ~name:"compile_stream byte-identical to one-shot (random DAGs)" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed -> check_byte_identity (Gen_circuit.random ~gates:30 ~seed ()))

let test_stream_bytes_random_lut =
  QCheck.Test.make ~name:"compile_stream byte-identical to one-shot (LUT DAGs)" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed -> check_byte_identity (Gen_circuit.random_lut ~gates:24 ~seed ()))

let test_stream_bytes_shapes () =
  List.iter
    (fun net ->
      Alcotest.(check bool) "byte identity" true (check_byte_identity net))
    [ Gen_circuit.wide ~width:6 ~depth:4; Gen_circuit.chain ~depth:20 ]

let test_stream_header_sentinel () =
  (* The raw stream carries the sentinel header; the buffered variant
     backpatches it. *)
  let net = Gen_circuit.random ~seed:5 () in
  let buf = Buffer.create 256 in
  let report =
    Pipeline.compile_stream ~hash_consing:false ~fold_constants:false ~name:"raw"
      ~sink:(Buffer.add_bytes buf) (replay net)
  in
  let raw = Buffer.to_bytes buf in
  (match Binary.disassemble raw with
  | Binary.Header { gate_total } :: _ ->
    Alcotest.(check int) "sentinel header" Binary.streamed_gate_total gate_total
  | _ -> Alcotest.fail "missing header");
  let patched, _ = stream_bytes net in
  (match Binary.disassemble patched with
  | Binary.Header { gate_total } :: _ -> Alcotest.(check int) "exact header" report.Pipeline.gates gate_total
  | _ -> Alcotest.fail "missing header");
  Alcotest.(check int) "bytes accounted" (Bytes.length raw) report.Pipeline.bytes_emitted

let test_stream_to_file_roundtrip () =
  let net = Gen_circuit.random_lut ~seed:9 () in
  let path = Filename.temp_file "pytfhe_stream" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let report =
        Pipeline.compile_stream_to_file ~hash_consing:false ~fold_constants:false ~name:"file"
          ~path (replay net)
      in
      let bytes = Binary.read_file path in
      let reference = Binary.assemble net in
      Alcotest.(check bool) "file stream = one-shot binary" true (Bytes.equal bytes reference);
      (* and the file ingests through the service path, with the exact
         (backpatched) gate total in its header *)
      ignore (Pipeline.of_binary ~name:"file" bytes);
      match Binary.disassemble bytes with
      | Binary.Header { gate_total } :: _ ->
        Alcotest.(check int) "header backpatched" report.Pipeline.gates gate_total
      | _ -> Alcotest.fail "missing header")

let test_windowed_eviction_reported () =
  (* With CSE enabled and a tiny window on a repetitive circuit, entries
     must actually evict and the peak stay at the bound. *)
  let report =
    Pipeline.compile_stream ~window:8 ~name:"evict"
      ~sink:(fun _ -> ())
      (fun net ->
        let a = Netlist.input net "a" and b = Netlist.input net "b" in
        let x = ref a in
        for _ = 1 to 64 do
          x := Netlist.gate net Pytfhe_circuit.Gate.Xor !x b
        done;
        Netlist.mark_output net "o" !x)
  in
  Alcotest.(check bool) "evictions happened" true (report.Pipeline.cse_evicted > 0);
  Alcotest.(check bool) "peak bounded" true (report.Pipeline.cse_peak <= 8)

let test_of_binary_max_bytes () =
  let net = Gen_circuit.random ~seed:3 () in
  let bytes = Binary.assemble net in
  Alcotest.(check bool) "under the cap parses" true
    (ignore (Pipeline.of_binary ~max_bytes:(Bytes.length bytes) ~name:"ok" bytes);
     true);
  Alcotest.(check bool) "over the cap rejected before parse" true
    (try
       ignore (Pipeline.of_binary ~max_bytes:(Bytes.length bytes - 1) ~name:"big" bytes);
       false
     with Pytfhe_util.Wire.Corrupt _ -> true)

let test_of_binary_source () =
  let net = Gen_circuit.random_lut ~seed:21 () in
  let bytes = Binary.assemble net in
  let c = Pipeline.of_binary_source ~name:"src" (source_of_bytes bytes) in
  Alcotest.(check bool) "source ingest re-assembles identically" true
    (Bytes.equal c.Pipeline.binary bytes);
  Alcotest.(check int) "stats agree with whole-buffer ingest"
    (Netlist.gate_count (Binary.parse bytes))
    (Netlist.gate_count c.Pipeline.netlist)

(* ------------------------------------------------------------------ *)
(* run_stream vs the in-order reference, across executors             *)
(* ------------------------------------------------------------------ *)

let keys = lazy (Pytfhe_tfhe.Gates.key_gen (Rng.create ~seed:909 ()) Pytfhe_tfhe.Params.test)

let encrypted_inputs net seed =
  let sk, _ = Lazy.force keys in
  let rng = Rng.create ~seed () in
  let ins = Array.init (Netlist.input_count net) (fun _ -> Rng.bool rng) in
  (ins, Array.map (Pytfhe_tfhe.Gates.encrypt_bit rng sk) ins)

let check_executor_stream (module E : Executor.S) ?opts ?window net seed =
  let sk, ck = Lazy.force keys in
  let bytes = Binary.assemble net in
  let ins, cts = encrypted_inputs net seed in
  let ref_out = Stream_exec.run_encrypted ck bytes cts in
  let stream_out, _ = E.run_stream ?opts ?window ck (source_of_bytes bytes) cts in
  if stream_out <> ref_out then
    QCheck.Test.fail_report "run_stream ciphertexts differ from the in-order reference";
  let plain = Array.of_list (List.map snd (Plain_eval.run net ins)) in
  Array.for_all2 ( = ) plain (Array.map (Pytfhe_tfhe.Gates.decrypt_bit sk) stream_out)

let test_cpu_stream_matches =
  QCheck.Test.make ~name:"cpu run_stream bit-exact (incl. LUTs, tiny window)" ~count:4
    QCheck.(int_range 0 10_000)
    (fun seed ->
      check_executor_stream Executor.cpu (Gen_circuit.random ~seed ()) seed
      && check_executor_stream Executor.cpu ~window:2 (Gen_circuit.random_lut ~seed ()) seed)

let test_cpu_stream_batched =
  QCheck.Test.make ~name:"cpu run_stream batched bit-exact" ~count:3
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let opts = { Executor.default_opts with Exec_opts.batch = Some 3 } in
      check_executor_stream Executor.cpu ~opts (Gen_circuit.random_lut ~seed ()) seed)

let test_par_stream_matches =
  QCheck.Test.make ~name:"par run_stream bit-exact (2 workers, incl. LUTs)" ~count:3
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let e = Executor.multicore ~workers:2 () in
      check_executor_stream e (Gen_circuit.random ~seed ()) seed
      && check_executor_stream e ~window:3 (Gen_circuit.random_lut ~seed ()) seed)

let test_dist_stream_matches =
  QCheck.Test.make ~name:"dist run_stream bit-exact (2 workers, incl. LUTs)" ~count:2
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let e = Executor.multiprocess ~workers:2 () in
      check_executor_stream e (Gen_circuit.random ~seed ()) seed
      && check_executor_stream e (Gen_circuit.random_lut ~seed ()) seed)

(* ------------------------------------------------------------------ *)
(* Frontend template reuse                                             *)
(* ------------------------------------------------------------------ *)

module Dtype = Pytfhe_chiseltorch.Dtype
module Tensor = Pytfhe_chiseltorch.Tensor
module Nn = Pytfhe_chiseltorch.Nn
module Attention = Pytfhe_chiseltorch.Attention

let eval_outputs net ins =
  List.map snd (Plain_eval.run net ins)

let build_pair build =
  (* the same construction with and without template reuse *)
  let mk reuse =
    let net = Netlist.create () in
    build reuse net;
    net
  in
  (mk false, mk true)

let check_reuse_equivalent build =
  let direct, reused = build_pair build in
  Alcotest.(check int) "same input count" (Netlist.input_count direct)
    (Netlist.input_count reused);
  let rng = Rng.create ~seed:77 () in
  for _ = 1 to 5 do
    let ins = Array.init (Netlist.input_count direct) (fun _ -> Rng.bool rng) in
    Alcotest.(check (list bool)) "reuse = direct" (eval_outputs direct ins) (eval_outputs reused ins)
  done

let dtype = Dtype.Fixed { width = 6; frac = 2 }

let test_matmul_reuse () =
  check_reuse_equivalent (fun reuse net ->
      let a = Tensor.input net "a" dtype [| 2; 3 |] in
      let b = Tensor.input net "b" dtype [| 3; 2 |] in
      Tensor.output net "y" (Tensor.matmul ~reuse net a b))

let test_matmul_const_reuse () =
  check_reuse_equivalent (fun reuse net ->
      let a = Tensor.input net "a" dtype [| 3; 2 |] in
      let w = [| [| 0.5; -1.0; 0.25 |]; [| 1.5; 0.75; -0.5 |] |] in
      Tensor.output net "y" (Tensor.matmul_const ~reuse net a w))

let test_conv_reuse () =
  let rngw = Rng.create ~seed:13 () in
  let weights = Array.init (2 * 1 * 2 * 2) (fun _ -> Rng.float rngw -. 0.5) in
  let bias = Some [| 0.25; -0.5 |] in
  let model =
    [ Nn.Conv2d { in_ch = 1; out_ch = 2; kernel = 2; stride = 1; padding = 1; weights; bias } ]
  in
  check_reuse_equivalent (fun reuse net ->
      let x = Tensor.input net "x" dtype [| 1; 3; 3 |] in
      Tensor.output net "y" (Nn.run ~reuse net model x))

let test_attention_reuse () =
  let cfg = { Attention.seq_len = 2; hidden = 3 } in
  let w = Attention.random_weights (Rng.create ~seed:19 ()) cfg in
  check_reuse_equivalent (fun reuse net ->
      let x = Tensor.input net "x" dtype [| 2; 3 |] in
      Tensor.output net "y" (Attention.build ~reuse net cfg w x))

let () = Dist_eval.worker_entry ()

let () =
  Alcotest.run "stream"
    [
      ( "compile_stream",
        [
          QCheck_alcotest.to_alcotest test_stream_bytes_random;
          QCheck_alcotest.to_alcotest test_stream_bytes_random_lut;
          Alcotest.test_case "wide and chain shapes" `Quick test_stream_bytes_shapes;
          Alcotest.test_case "header sentinel and backpatch" `Quick test_stream_header_sentinel;
          Alcotest.test_case "file roundtrip" `Quick test_stream_to_file_roundtrip;
          Alcotest.test_case "windowed eviction reported" `Quick test_windowed_eviction_reported;
          Alcotest.test_case "of_binary admission cap" `Quick test_of_binary_max_bytes;
          Alcotest.test_case "of_binary_source" `Quick test_of_binary_source;
        ] );
      ( "run_stream",
        [
          QCheck_alcotest.to_alcotest test_cpu_stream_matches;
          QCheck_alcotest.to_alcotest test_cpu_stream_batched;
          QCheck_alcotest.to_alcotest test_par_stream_matches;
          QCheck_alcotest.to_alcotest test_dist_stream_matches;
        ] );
      ( "template reuse",
        [
          Alcotest.test_case "matmul" `Quick test_matmul_reuse;
          Alcotest.test_case "matmul_const" `Quick test_matmul_const_reuse;
          Alcotest.test_case "conv2d" `Quick test_conv_reuse;
          Alcotest.test_case "attention" `Quick test_attention_reuse;
        ] );
    ]

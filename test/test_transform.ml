(* The transform dispatch layer: the exact double-prime NTT against the
   complex FFT.

   Three layers of evidence, mirroring the claims in docs/perf.md:

   - the NTT itself is *exact*: its negacyclic products equal the
     schoolbook reference coefficient for coefficient at gadget-scale
     magnitudes, and the FFT agrees once rounded (its products round to
     exact integers in this range — which is what makes the two gate
     pipelines bit-comparable at all);
   - the gate pipeline is transform-generic: random netlists evaluated
     under FFT parameters and NTT parameters decrypt to identical
     plaintexts on the sequential, domain-parallel and multi-process
     executors (and the raw NTT ciphertexts are bit-exact across those
     executors, like the FFT's);
   - the table caches are precomputed before worker domains exist: a
     parallel run over a warmed cache performs zero table builds. *)

module Rng = Pytfhe_util.Rng
module Wire = Pytfhe_util.Wire
module Netlist = Pytfhe_circuit.Netlist
module Negacyclic = Pytfhe_fft.Negacyclic
module Ntt = Pytfhe_fft.Ntt
module Transform = Pytfhe_fft.Transform
open Pytfhe_tfhe
open Pytfhe_backend

let ntt_test_params = Params.with_transform Params.test Transform.Ntt

let fft_keys = lazy (Gates.key_gen (Rng.create ~seed:909 ()) Params.test)
let ntt_keys = lazy (Gates.key_gen (Rng.create ~seed:909 ()) ntt_test_params)

(* ------------------------------------------------------------------ *)
(* NTT exactness and contracts                                         *)
(* ------------------------------------------------------------------ *)

(* Digits at the gadget bound (±Bg/2) against full-range centred torus
   words, at the production ring size: the NTT must match the schoolbook
   product exactly, not approximately. *)
let test_ntt_polymul_exact_gadget_range () =
  let n = 1024 in
  let rng = Rng.create ~seed:11 () in
  let a = Array.init n (fun _ -> Rng.int rng 64 - 32) in
  let b = Array.init n (fun _ -> Rng.int rng (1 lsl 32) - (1 lsl 31)) in
  Alcotest.(check bool) "ntt == schoolbook at N=1024" true
    (Ntt.polymul a b = Ntt.polymul_naive a b)

let test_ntt_roundtrip () =
  let n = 256 in
  let rng = Rng.create ~seed:12 () in
  let p = Array.init n (fun _ -> Rng.int rng (1 lsl 40) - (1 lsl 39)) in
  Alcotest.(check bool) "backward (forward p) = p" true (Ntt.backward (Ntt.forward p) = p)

(* backward_into runs the inverse in place: the spectrum is scratch
   afterwards.  Pin the contract so a caller reusing a spectrum after the
   inverse fails a test, not a debugging session. *)
let test_ntt_backward_destroys_spectrum () =
  let n = 64 in
  let rng = Rng.create ~seed:13 () in
  let p = Array.init n (fun _ -> Rng.int rng 1000 - 500) in
  let s = Ntt.forward p in
  let v1 = Array.copy s.Ntt.v1 and v2 = Array.copy s.Ntt.v2 in
  let out = Array.make n 0 in
  Ntt.backward_into out s;
  Alcotest.(check bool) "inverse recovers the polynomial" true (out = p);
  Alcotest.(check bool) "spectrum consumed by the inverse" true
    (s.Ntt.v1 <> v1 || s.Ntt.v2 <> v2)

let test_ntt_mul_add_accumulates () =
  let n = 128 in
  let rng = Rng.create ~seed:14 () in
  let a1 = Array.init n (fun _ -> Rng.int rng 64 - 32) in
  let b1 = Array.init n (fun _ -> Rng.int rng (1 lsl 31) - (1 lsl 30)) in
  let a2 = Array.init n (fun _ -> Rng.int rng 64 - 32) in
  let b2 = Array.init n (fun _ -> Rng.int rng (1 lsl 31) - (1 lsl 30)) in
  let acc = Ntt.spectrum_create n in
  Ntt.spectrum_zero acc;
  Ntt.mul_add_into acc (Ntt.forward a1) (Ntt.forward b1);
  Ntt.mul_add_into acc (Ntt.forward a2) (Ntt.forward b2);
  let got = Ntt.backward acc in
  let expected =
    Array.map2 ( + ) (Ntt.polymul_naive a1 b1) (Ntt.polymul_naive a2 b2)
  in
  Alcotest.(check bool) "sum of two products" true (got = expected)

(* In the gadget range the FFT's products round to exact integers, so
   rounding its result must reproduce the NTT's exact one — the property
   the ntt_ok CI gate and every cross-transform comparison stand on. *)
let test_fft_ntt_polymul_agree =
  QCheck.Test.make ~name:"fft rounds to the ntt's exact product" ~count:25
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let n = 256 in
      let rng = Rng.create ~seed:(100 + (1000 * s1) + s2) () in
      let a = Array.init n (fun _ -> Rng.int rng 64 - 32) in
      let b = Array.init n (fun _ -> Rng.int rng (1 lsl 32) - (1 lsl 31)) in
      let exact = Ntt.polymul a b in
      let via_fft =
        Negacyclic.polymul (Array.map float_of_int a) (Array.map float_of_int b)
        |> Array.map (fun x -> Int64.to_int (Int64.of_float (Float.round x)))
      in
      via_fft = exact)

(* ------------------------------------------------------------------ *)
(* Params plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let roundtrip p =
  let buf = Buffer.create 128 in
  Params.write buf p;
  Params.read (Wire.reader_of_string (Buffer.contents buf))

let test_params_transform_roundtrip () =
  Alcotest.(check bool) "fft roundtrips" true (Params.equal (roundtrip Params.test) Params.test);
  Alcotest.(check bool) "ntt roundtrips" true
    (Params.equal (roundtrip ntt_test_params) ntt_test_params);
  Alcotest.(check bool) "transform survives the wire" true
    ((roundtrip ntt_test_params).Params.transform = Transform.Ntt)

let test_params_ntt_validation () =
  (* Identical numeric parameters: fine under FFT, rejected under NTT
     because the worst-case product magnitude exceeds the CRT modulus
     headroom. *)
  let big transform =
    Params.validate
      {
        (Params.with_transform Params.test transform) with
        Params.tlwe = { Params.ring_n = 1 lsl 18; k = 1; tlwe_stdev = 2.0 ** -30.0 };
        tgsw = { Params.l = 2; bg_bit = 16 };
      }
  in
  Alcotest.(check bool) "headroom params valid under fft" true (big Transform.Fft = Ok ());
  Alcotest.(check bool) "headroom params invalid under ntt" true
    (match big Transform.Ntt with Error _ -> true | Ok () -> false);
  let huge_ring transform =
    Params.validate
      {
        (Params.with_transform Params.test transform) with
        Params.tlwe = { Params.ring_n = 1 lsl 21; k = 1; tlwe_stdev = 2.0 ** -30.0 };
      }
  in
  Alcotest.(check bool) "2^21 ring valid under fft" true (huge_ring Transform.Fft = Ok ());
  Alcotest.(check bool) "2^21 ring exceeds ntt 2-adicity" true
    (match huge_ring Transform.Ntt with Error _ -> true | Ok () -> false)

(* A bootstrapping-key row serialized under one transform must be rejected
   when read under parameters selecting the other: the GFFT/GNTT magic is
   the keyset-payload mismatch guard. *)
let test_tgsw_wire_transform_mismatch () =
  let rng = Rng.create ~seed:21 () in
  let key = Tlwe.key_gen rng Params.test in
  let sample kind =
    let p = Params.with_transform Params.test kind in
    Tgsw.to_fft p (Tgsw.encrypt_int rng p key 1)
  in
  let serialized s =
    let buf = Buffer.create 4096 in
    Tgsw.write_fft buf s;
    Buffer.contents buf
  in
  let rejects p blob =
    match Tgsw.read_fft p (Wire.reader_of_string blob) with
    | _ -> false
    | exception Wire.Corrupt _ -> true
  in
  let fft_blob = serialized (sample Transform.Fft) in
  let ntt_blob = serialized (sample Transform.Ntt) in
  Alcotest.(check bool) "fft payload readable under fft params" true
    (not (rejects Params.test fft_blob));
  Alcotest.(check bool) "ntt payload readable under ntt params" true
    (not (rejects ntt_test_params ntt_blob));
  Alcotest.(check bool) "fft payload rejected under ntt params" true
    (rejects ntt_test_params fft_blob);
  Alcotest.(check bool) "ntt payload rejected under fft params" true
    (rejects Params.test ntt_blob)

(* ------------------------------------------------------------------ *)
(* Cross-transform differential over random netlists                   *)
(* ------------------------------------------------------------------ *)

let random_bits rng n = Array.init n (fun _ -> Rng.bool rng)

(* The same random netlist under FFT parameters and NTT parameters must
   decrypt to the same plaintexts — equal to the plain-netlist truth — on
   the sequential, domain-parallel and multi-process executors.  The
   keysets share a seed but not ciphertext bits (different key formats),
   so the comparison is at the plaintext level; within each transform the
   executors must also stay ciphertext-bit-exact with each other. *)
let test_cross_transform_netlists =
  QCheck.Test.make ~name:"fft/ntt netlists decrypt identically on cpu/par/dist" ~count:2
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (s1, s2) ->
      let net = Gen_circuit.random ~seed:(3 + s1) () in
      let ins = random_bits (Rng.create ~seed:(4000 + s2) ()) (Netlist.input_count net) in
      let plain = Array.of_list (List.map snd (Plain_eval.run net ins)) in
      let decrypted_under (sk, ck) =
        let rng = Rng.create ~seed:(5000 + s2) () in
        let cts = Array.map (Gates.encrypt_bit rng sk) ins in
        let seq_out = Run_net.reference ck net cts in
        let cpu_out, _ = Run_net.cpu ck net cts in
        let par_out, _ = Run_net.par ~workers:2 ck net cts in
        let dist_out, _ = Run_net.dist (Dist_eval.config 2) ck net cts in
        if cpu_out <> seq_out then
          QCheck.Test.fail_report "cpu executor not bit-exact with the in-order reference";
        if par_out <> seq_out then
          QCheck.Test.fail_report "par executor not bit-exact with sequential";
        if dist_out <> seq_out then
          QCheck.Test.fail_report "dist executor not bit-exact with sequential";
        Array.map (Gates.decrypt_bit sk) seq_out
      in
      let fft_bits = decrypted_under (Lazy.force fft_keys) in
      let ntt_bits = decrypted_under (Lazy.force ntt_keys) in
      if fft_bits <> plain then QCheck.Test.fail_report "fft run disagrees with plaintext";
      if ntt_bits <> plain then QCheck.Test.fail_report "ntt run disagrees with plaintext";
      true)

(* ------------------------------------------------------------------ *)
(* Precompute: no table builds once worker domains are running          *)
(* ------------------------------------------------------------------ *)

(* Par_eval precomputes transform tables before spawning its domain pool;
   with the cache warm, a parallel NTT run must perform zero further
   table constructions (Ntt.builds is a monotone build counter, so this
   is a table-initialized check, not a timing heuristic). *)
let test_par_run_builds_no_tables () =
  let sk, ck = Lazy.force ntt_keys in
  let net = Gen_circuit.wide ~width:6 ~depth:2 in
  let rng = Rng.create ~seed:31 () in
  let ins = random_bits rng 7 in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  Params.precompute ck.Gates.cloud_params;
  let ring_n = ck.Gates.cloud_params.Params.tlwe.Params.ring_n in
  Alcotest.(check bool) "ntt tables ready before the run" true (Ntt.tables_ready ring_n);
  let b0 = Ntt.builds () in
  let _, _ = Run_net.par ~workers:4 ck net cts in
  Alcotest.(check int) "no ntt table builds during the parallel run" b0 (Ntt.builds ());
  Alcotest.(check bool) "fft transform tables also ready" true
    (Transform.tables_ready Transform.Ntt ring_n)

(* Must run before anything else: in a spawned worker process this serves
   the gate protocol and never returns. *)
let () = Dist_eval.worker_entry ()

let () =
  Alcotest.run "transform"
    [
      ( "ntt-core",
        [
          Alcotest.test_case "polymul exact at gadget range" `Quick
            test_ntt_polymul_exact_gadget_range;
          Alcotest.test_case "roundtrip" `Quick test_ntt_roundtrip;
          Alcotest.test_case "backward destroys spectrum" `Quick
            test_ntt_backward_destroys_spectrum;
          Alcotest.test_case "mul_add accumulates" `Quick test_ntt_mul_add_accumulates;
          QCheck_alcotest.to_alcotest test_fft_ntt_polymul_agree;
        ] );
      ( "params",
        [
          Alcotest.test_case "transform wire roundtrip" `Quick test_params_transform_roundtrip;
          Alcotest.test_case "ntt validation" `Quick test_params_ntt_validation;
          Alcotest.test_case "tgsw wire mismatch" `Quick test_tgsw_wire_transform_mismatch;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest test_cross_transform_netlists ] );
      ( "precompute",
        [ Alcotest.test_case "no mid-flight table builds" `Slow test_par_run_builds_no_tables ] );
    ]

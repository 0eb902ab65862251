(* The batched key-streaming execution path (Bootstrap.batch_with /
   Keyswitch.apply_batch / Gates.bootstrap_batch / Gates.bootstrap_batch_rows
   and the opts.batch knob on the executors).

   The contract under test is bit-exactness: the batched kernel reorders the
   *loop nest* (bootstrapping-key entry outermost, batch member innermost)
   but not any per-gate operation sequence, so every batch size must produce
   the very same ciphertexts as the scalar per-gate walk. *)

module Rng = Pytfhe_util.Rng
module Wire = Pytfhe_util.Wire
module Netlist = Pytfhe_circuit.Netlist
module Levelize = Pytfhe_circuit.Levelize
module Params = Pytfhe_tfhe.Params
module Gates = Pytfhe_tfhe.Gates
module Lwe = Pytfhe_tfhe.Lwe
module Lwe_array = Pytfhe_tfhe.Lwe_array
module Transform = Pytfhe_fft.Transform
open Pytfhe_backend

let keys = lazy (Gates.key_gen (Rng.create ~seed:909 ()) Params.test)

let ntt_keys =
  lazy (Gates.key_gen (Rng.create ~seed:909 ()) (Params.with_transform Params.test Transform.Ntt))

let bopts b = { Executor.default_opts with batch = Some b }

(* ------------------------------------------------------------------ *)
(* Lwe_array storage                                                   *)
(* ------------------------------------------------------------------ *)

(* Uniform canonical torus values: every int32 bit pattern is a legal
   ciphertext word, so storage tests need no crypto. *)
let random_sample rng ~n =
  { Lwe.a = Array.init n (fun _ -> Rng.bits32 rng land 0xFFFFFFFF); b = Rng.bits32 rng land 0xFFFFFFFF }

let random_wave rng ~n len = Array.init len (fun _ -> random_sample rng ~n)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_lwe_array_roundtrip =
  QCheck.Test.make ~name:"lwe_array of_samples/get/set/to_samples = identity" ~count:50
    QCheck.(triple (int_range 1 17) (int_range 1 9) small_int)
    (fun (n, len, seed) ->
      let rng = Rng.create ~seed:(7000 + seed) () in
      let wave = random_wave rng ~n len in
      let t = Lwe_array.of_samples ~n wave in
      if Lwe_array.length t <> len || Lwe_array.dim t <> n then
        QCheck.Test.fail_report "shape lost";
      if Lwe_array.to_samples t <> wave then QCheck.Test.fail_report "to_samples differs";
      Array.iteri
        (fun r s -> if Lwe_array.get t r <> s then QCheck.Test.fail_report "get differs")
        wave;
      (* Overwrite through set and read back through mask/body. *)
      let s' = random_sample rng ~n in
      let r = Rng.int rng len in
      Lwe_array.set t r s';
      if Lwe_array.get t r <> s' then QCheck.Test.fail_report "set/get differs";
      Array.iteri
        (fun i v -> if Lwe_array.mask t r i <> v then QCheck.Test.fail_report "mask read differs")
        s'.Lwe.a;
      Lwe_array.body t r = s'.Lwe.b)

let test_lwe_array_row_ops =
  QCheck.Test.make ~name:"lwe_array row ops bit-exact with Lwe record ops" ~count:50
    QCheck.(triple (int_range 1 16) small_int (int_range ~-3 3))
    (fun (n, seed, k) ->
      let rng = Rng.create ~seed:(8000 + seed) () in
      let wave = random_wave rng ~n 4 in
      let t = Lwe_array.of_samples ~n wave in
      let dst = Lwe_array.create ~n 4 in
      Lwe_array.add_into ~dst ~drow:0 ~a:t ~arow:0 ~b:t ~brow:1;
      if Lwe_array.get dst 0 <> Lwe.add wave.(0) wave.(1) then
        QCheck.Test.fail_report "add_into differs";
      Lwe_array.sub_into ~dst ~drow:1 ~a:t ~arow:2 ~b:t ~brow:3;
      if Lwe_array.get dst 1 <> Lwe.sub wave.(2) wave.(3) then
        QCheck.Test.fail_report "sub_into differs";
      Lwe_array.scale_into ~dst ~drow:2 k ~src:t ~srow:1;
      if Lwe_array.get dst 2 <> Lwe.scale k wave.(1) then
        QCheck.Test.fail_report "scale_into differs";
      Lwe_array.neg_into ~dst ~drow:3 ~src:t ~srow:0;
      if Lwe_array.get dst 3 <> Lwe.neg wave.(0) then QCheck.Test.fail_report "neg_into differs";
      (* The fused gate combine against the scalar reference, for every plan. *)
      List.for_all
        (fun plan ->
          let reference = Gates.combine ~n plan wave.(0) wave.(1) in
          Lwe_array.combine_into ~dst ~drow:0 ~konst:plan.Gates.plan_const
            ~scale:plan.Gates.plan_scale ~sign_a:plan.Gates.plan_sign_a ~a:t ~arow:0
            ~sign_b:plan.Gates.plan_sign_b ~b:t ~brow:1;
          Lwe_array.get dst 0 = reference)
        [
          Gates.nand_plan;
          Gates.and_plan;
          Gates.or_plan;
          Gates.nor_plan;
          Gates.xor_plan;
          Gates.xnor_plan;
          Gates.andny_plan;
          Gates.oryn_plan;
        ])

let test_lwe_array_aliasing =
  QCheck.Test.make ~name:"lwe_array *_into safe when dst aliases sources" ~count:50
    QCheck.(pair (int_range 1 16) small_int)
    (fun (n, seed) ->
      let rng = Rng.create ~seed:(8100 + seed) () in
      let wave = random_wave rng ~n 3 in
      (* dst row = a row: t.(0) <- t.(0) + t.(1). *)
      let t = Lwe_array.of_samples ~n wave in
      Lwe_array.add_into ~dst:t ~drow:0 ~a:t ~arow:0 ~b:t ~brow:1;
      if Lwe_array.get t 0 <> Lwe.add wave.(0) wave.(1) then
        QCheck.Test.fail_report "add_into onto own source row differs";
      (* dst = both sources: t.(1) <- t.(1) - t.(1) through overlapping
         slices of the same storage. *)
      let s = Lwe_array.slice t ~pos:1 ~len:2 in
      Lwe_array.sub_into ~dst:s ~drow:0 ~a:t ~arow:1 ~b:s ~brow:0;
      if Lwe_array.get t 1 <> Lwe.sub wave.(1) wave.(1) then
        QCheck.Test.fail_report "sub_into through overlapping slices differs";
      (* In-place combine: dst row aliases input a. *)
      let t2 = Lwe_array.of_samples ~n wave in
      let plan = Gates.xor_plan in
      let reference = Gates.combine ~n plan wave.(2) wave.(0) in
      Lwe_array.combine_into ~dst:t2 ~drow:2 ~konst:plan.Gates.plan_const
        ~scale:plan.Gates.plan_scale ~sign_a:plan.Gates.plan_sign_a ~a:t2 ~arow:2
        ~sign_b:plan.Gates.plan_sign_b ~b:t2 ~brow:0;
      Lwe_array.get t2 2 = reference)

let test_lwe_array_slice_blit () =
  let rng = Rng.create ~seed:606 () in
  let n = 5 in
  let wave = random_wave rng ~n 6 in
  let t = Lwe_array.of_samples ~n wave in
  (* Slices are aliasing views in both directions. *)
  let s = Lwe_array.slice t ~pos:2 ~len:3 in
  Alcotest.(check int) "slice length" 3 (Lwe_array.length s);
  Alcotest.(check bool) "slice rows are parent rows" true
    (Lwe_array.get s 0 = wave.(2) && Lwe_array.get s 2 = wave.(4));
  let fresh = random_sample rng ~n in
  Lwe_array.set s 1 fresh;
  Alcotest.(check bool) "write through slice visible in parent" true (Lwe_array.get t 3 = fresh);
  Lwe_array.set_trivial t 2 12345;
  Alcotest.(check bool) "write through parent visible in slice" true
    (Lwe_array.get s 0 = Lwe.trivial ~n 12345);
  (* Whole-row blit. *)
  let dst = Lwe_array.create ~n 4 in
  Lwe_array.blit ~src:t ~src_pos:1 ~dst ~dst_pos:2 ~len:2;
  Alcotest.(check bool) "blit copies rows" true
    (Lwe_array.get dst 2 = Lwe_array.get t 1 && Lwe_array.get dst 3 = Lwe_array.get t 2);
  Alcotest.(check bool) "blit leaves other rows" true (Lwe_array.get dst 0 = Lwe.trivial ~n 0);
  (* Bounds and shape enforcement. *)
  Alcotest.(check bool) "slice pos out of bounds" true
    (raises_invalid (fun () -> Lwe_array.slice t ~pos:5 ~len:2));
  Alcotest.(check bool) "slice negative" true
    (raises_invalid (fun () -> Lwe_array.slice t ~pos:(-1) ~len:1));
  Alcotest.(check bool) "get row out of bounds" true (raises_invalid (fun () -> Lwe_array.get t 6));
  Alcotest.(check bool) "set dimension mismatch" true
    (raises_invalid (fun () -> Lwe_array.set t 0 (random_sample rng ~n:(n + 1))));
  Alcotest.(check bool) "blit dimension mismatch" true
    (raises_invalid (fun () ->
         Lwe_array.blit ~src:t ~src_pos:0 ~dst:(Lwe_array.create ~n:(n + 1) 4) ~dst_pos:0 ~len:1));
  Alcotest.(check bool) "blit range out of bounds" true
    (raises_invalid (fun () -> Lwe_array.blit ~src:t ~src_pos:5 ~dst ~dst_pos:0 ~len:2));
  Alcotest.(check bool) "create rejects n < 1" true
    (raises_invalid (fun () -> Lwe_array.create ~n:0 3))

let test_lwe_array_wire () =
  let rng = Rng.create ~seed:607 () in
  let n = 7 in
  let t = Lwe_array.of_samples ~n (random_wave rng ~n 5) in
  let buf = Buffer.create 256 in
  Lwe_array.write buf t;
  let bytes = Buffer.contents buf in
  let t' = Lwe_array.read (Wire.reader_of_string bytes) in
  Alcotest.(check bool) "roundtrip preserves every row" true
    (Lwe_array.to_samples t' = Lwe_array.to_samples t);
  (* Re-serialization is byte-identical: the format has one encoding. *)
  let buf2 = Buffer.create 256 in
  Lwe_array.write buf2 t';
  Alcotest.(check string) "re-encoding byte-identical" bytes (Buffer.contents buf2);
  (* Truncations at every prefix length must raise Corrupt, never return. *)
  let truncated_rejected =
    List.for_all
      (fun keep ->
        try
          ignore (Lwe_array.read (Wire.reader_of_string (String.sub bytes 0 keep)));
          false
        with Wire.Corrupt _ -> true)
      [ 0; 3; 4; 12; 20; String.length bytes - 1 ]
  in
  Alcotest.(check bool) "every truncation raises Corrupt" true truncated_rejected;
  (* A flipped magic byte must be rejected too. *)
  let corrupt = Bytes.of_string bytes in
  Bytes.set corrupt 0 'X';
  Alcotest.(check bool) "corrupt magic raises" true
    (try
       ignore (Lwe_array.read (Wire.reader_of_string (Bytes.to_string corrupt)));
       false
     with Wire.Corrupt _ -> true)

(* ------------------------------------------------------------------ *)
(* Gate-level batch kernel                                             *)
(* ------------------------------------------------------------------ *)

let test_bootstrap_batch_matches_scalar () =
  let sk, ck = Lazy.force keys in
  let rng = Rng.create ~seed:88 () in
  let ctx = Gates.context ck in
  let bc = Gates.batch_context ck ~cap:4 in
  Alcotest.(check int) "capacity" 4 (Gates.batch_capacity bc);
  let n = ck.Gates.cloud_params.Params.lwe.Params.n in
  let a = Gates.encrypt_bit rng sk true in
  let b = Gates.encrypt_bit rng sk false in
  (* Mixed gate types in one batch: they all share the sign bootstrap. *)
  let plans = [| Gates.and_plan; Gates.xor_plan; Gates.nor_plan |] in
  let combined = Array.map (fun pl -> Gates.combine ~n pl a b) plans in
  let batched = Gates.bootstrap_batch bc combined in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) "batched element = scalar bootstrap" true
        (batched.(i) = Gates.bootstrap_in ctx c))
    combined;
  let c = Gates.batch_counters bc in
  Alcotest.(check int) "one launch" 1 c.Gates.batch_launches;
  Alcotest.(check int) "three gates batched" 3 c.Gates.batch_gates;
  Alcotest.(check bool) "bsk rows streamed, at most once per key entry" true
    (c.Gates.bsk_rows > 0 && c.Gates.bsk_rows <= n);
  Alcotest.(check bool) "ks blocks streamed" true (c.Gates.ks_blocks > 0);
  Gates.reset_batch_counters bc;
  let c = Gates.batch_counters bc in
  Alcotest.(check int) "counters reset" 0
    (c.Gates.batch_launches + c.Gates.batch_gates + c.Gates.bsk_rows + c.Gates.ks_blocks);
  Alcotest.(check int) "empty batch is a no-op" 0
    (Array.length (Gates.bootstrap_batch bc [||]));
  Alcotest.(check bool) "rejects cap < 1" true
    (try
       ignore (Gates.batch_context ck ~cap:0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "rejects oversized batch" true
    (try
       ignore (Gates.bootstrap_batch bc (Array.make 5 a));
       false
     with Invalid_argument _ -> true)

(* The row kernel the service, the DRQ2 workers and the benchmark launch:
   any count up to the capacity is bit-exact with per-gate bootstraps, a
   count above it is refused. *)
let test_bootstrap_batch_rows =
  QCheck.Test.make ~name:"bootstrap_batch_rows = per-gate bootstrap_in, fft and ntt" ~count:4
    QCheck.(triple bool (int_range 2 5) small_int)
    (fun (ntt, cap, seed) ->
      let sk, ck = Lazy.force (if ntt then ntt_keys else keys) in
      let rng = Rng.create ~seed:(9100 + seed) () in
      let ctx = Gates.context ck in
      let bc = Gates.batch_context ck ~cap in
      let n = ck.Gates.cloud_params.Params.lwe.Params.n in
      let plans = [| Gates.and_plan; Gates.xor_plan; Gates.nor_plan; Gates.oryn_plan |] in
      let combined count =
        Array.init count (fun i ->
            Gates.combine ~n plans.(i mod Array.length plans)
              (Gates.encrypt_bit rng sk (Rng.bool rng))
              (Gates.encrypt_bit rng sk (Rng.bool rng)))
      in
      let exact count =
        let wave = combined count in
        let rows = Gates.bootstrap_batch_rows bc (Lwe_array.of_samples ~n wave) in
        Lwe_array.length rows = count
        && Array.for_all Fun.id
             (Array.mapi (fun i c -> Lwe_array.get rows i = Gates.bootstrap_in ctx c) wave)
      in
      if not (exact (cap - 1)) then QCheck.Test.fail_report "count below cap differs";
      if not (exact cap) then QCheck.Test.fail_report "count at cap differs";
      raises_invalid (fun () ->
          Gates.bootstrap_batch_rows bc (Lwe_array.of_samples ~n (combined (cap + 1)))))

let test_mux_gate_in_matches_mux_gate () =
  let sk, ck = Lazy.force keys in
  let rng = Rng.create ~seed:77 () in
  let ctx = Gates.context ck in
  List.iter
    (fun (s, x, y) ->
      let cs = Gates.encrypt_bit rng sk s in
      let cx = Gates.encrypt_bit rng sk x in
      let cy = Gates.encrypt_bit rng sk y in
      let via_keyset = Gates.mux_gate ck cs cx cy in
      let via_ctx = Gates.mux_gate_in ctx cs cx cy in
      Alcotest.(check bool) "ciphertext bit-exact with mux_gate" true (via_ctx = via_keyset);
      Alcotest.(check bool) "mux truth table"
        (if s then x else y)
        (Gates.decrypt_bit sk via_ctx))
    [ (false, false, true); (false, true, false); (true, true, false); (true, false, true) ]

(* ------------------------------------------------------------------ *)
(* Executor-level bit-exactness                                        *)
(* ------------------------------------------------------------------ *)

let test_batched_matches_scalar =
  QCheck.Test.make
    ~name:"batched cpu/multicore bit-exact with scalar for batch 1/3/8/widest-wave" ~count:4
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (s1, s2) ->
      let sk, ck = Lazy.force keys in
      let net = Gen_circuit.random ~seed:(1 + s1) () in
      let rng = Rng.create ~seed:(2000 + s2) () in
      let ins = Array.init (Netlist.input_count net) (fun _ -> Rng.bool rng) in
      let cts = Array.map (Gates.encrypt_bit rng sk) ins in
      let scalar_out, _ = Run_net.cpu ck net cts in
      let plain = Array.of_list (List.map snd (Plain_eval.run net ins)) in
      if Array.map (Gates.decrypt_bit sk) scalar_out <> plain then
        QCheck.Test.fail_report "scalar path disagrees with plain_eval";
      let widest = Array.fold_left max 1 (Levelize.run net).Levelize.widths in
      List.for_all
        (fun b ->
          let cpu_out, _ = Run_net.cpu ~opts:(bopts b) ck net cts in
          let par_out, _ = Run_net.par ~workers:2 ~opts:(bopts b) ck net cts in
          cpu_out = scalar_out && par_out = scalar_out)
        [ 1; 3; 8; widest ])

let test_non_divisible_wave () =
  let sk, ck = Lazy.force keys in
  (* Waves of 5 gates with batch 3 split 3 + 2 — the short trailing
     sub-batch must stay bit-exact and be counted as its own launch. *)
  let net = Gen_circuit.wide ~width:5 ~depth:2 in
  let rng = Rng.create ~seed:404 () in
  let ins = Array.init 6 (fun _ -> Rng.bool rng) in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  let scalar_out, _ = Run_net.cpu ck net cts in
  let outs, st = Run_net.cpu ~opts:(bopts 3) ck net cts in
  Alcotest.(check bool) "ciphertexts identical" true (outs = scalar_out);
  Alcotest.(check (array bool)) "decrypts to plain eval"
    (Array.of_list (List.map snd (Plain_eval.run net ins)))
    (Array.map (Gates.decrypt_bit sk) outs);
  Alcotest.(check int) "batch size recorded" 3 st.Tfhe_eval.batch_size;
  Alcotest.(check int) "two launches per 5-wide wave" 4 st.Tfhe_eval.batch_launches;
  Alcotest.(check bool) "bsk traffic accounted" true (st.Tfhe_eval.bsk_bytes_streamed > 0);
  Alcotest.(check bool) "ks traffic accounted" true (st.Tfhe_eval.ks_bytes_streamed > 0);
  Alcotest.(check bool) "rejects batch < 1" true
    (try
       ignore (Run_net.cpu ~opts:(bopts 0) ck net cts);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "par_eval rejects batch < 1" true
    (try
       ignore (Run_net.par ~workers:2 ~opts:(bopts 0) ck net cts);
       false
     with Invalid_argument _ -> true)

let test_key_traffic_drops_with_batch () =
  let sk, ck = Lazy.force keys in
  let net = Gen_circuit.wide ~width:8 ~depth:2 in
  let rng = Rng.create ~seed:405 () in
  let ins = Array.init 9 (fun _ -> Rng.bool rng) in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  let out1, st1 = Run_net.cpu ~opts:(bopts 1) ck net cts in
  let out8, st8 = Run_net.cpu ~opts:(bopts 8) ck net cts in
  Alcotest.(check bool) "batch sizes agree on ciphertexts" true (out1 = out8);
  (* Streaming the key once per 8-gate wave instead of once per gate must
     cut accounted key traffic by far more than 2x. *)
  Alcotest.(check bool) "bsk traffic drops at least 2x" true
    (st1.Tfhe_eval.bsk_bytes_streamed >= 2 * st8.Tfhe_eval.bsk_bytes_streamed);
  Alcotest.(check bool) "ks traffic drops too" true
    (st1.Tfhe_eval.ks_bytes_streamed > st8.Tfhe_eval.ks_bytes_streamed)

(* A pure-LUT netlist of two waves: three arity-1 cells (three rotation
   units), then two cells over one operand tuple (one shared unit) plus a
   cell over another (one unit) — six cells, five rotations. *)
let lut_waves () =
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let x = Array.init 3 (fun i -> Netlist.input net (Printf.sprintf "i%d" i)) in
  let r = Array.map (fun v -> Netlist.lut net ~table:0b10 [| v |]) x in
  List.iteri
    (fun k (table, ins) -> Netlist.mark_output net (Printf.sprintf "o%d" k) (Netlist.lut net ~table ins))
    [ (0b0110, [| r.(0); r.(1) |]); (0b1000, [| r.(0); r.(1) |]); (0b1110, [| r.(1); r.(2) |]) ];
  net

let test_lut_rotation_counts () =
  let sk, ck = Lazy.force keys in
  let net = lut_waves () in
  let rng = Rng.create ~seed:406 () in
  let ins = Array.init 3 (fun _ -> Rng.bool rng) in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  let reference = Run_net.reference ck net cts in
  let cpu_out, cpu = Run_net.cpu ck net cts in
  let par_out, par = Run_net.par ~workers:2 ck net cts in
  Alcotest.(check bool) "cpu bit-exact with the in-order reference" true (cpu_out = reference);
  Alcotest.(check bool) "par bit-exact with the in-order reference" true (par_out = reference);
  Alcotest.(check (array int)) "six cells in two waves" [| 3; 3 |] cpu.Tfhe_eval.wave_width;
  Alcotest.(check int) "cpu counts the shared rotation once" 5 cpu.Tfhe_eval.bootstraps_executed;
  Alcotest.(check int) "par counts the shared rotation once" 5 par.Par_eval.bootstraps_executed;
  Alcotest.(check int) "par per-domain rotations sum to the total" 5
    (Array.fold_left ( + ) 0 par.Par_eval.per_domain_bootstraps)

(* Under a batch, each domain runs its share of a wave's rotation units
   through its own batch context: on 2 domains with a batch wider than any
   share, a wave of 3 units launches twice (2 + 1) and a wave of 2 units
   twice (1 + 1). *)
let test_par_batches_lut_cells () =
  let sk, ck = Lazy.force keys in
  let net = lut_waves () in
  let rng = Rng.create ~seed:407 () in
  let ins = Array.init 3 (fun _ -> Rng.bool rng) in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  let reference = Run_net.reference ck net cts in
  let outs, st = Run_net.par ~workers:2 ~opts:(bopts 8) ck net cts in
  Alcotest.(check bool) "batched par bit-exact with the in-order reference" true
    (outs = reference);
  Alcotest.(check int) "one launch per domain share per wave" 4 st.Par_eval.batch_launches;
  Alcotest.(check bool) "key traffic accounted" true (st.Par_eval.bsk_bytes_streamed > 0);
  Alcotest.(check int) "rotations unchanged by batching" 5 st.Par_eval.bootstraps_executed

let test_executor_batch_knob () =
  let sk, ck = Lazy.force keys in
  let net = Gen_circuit.wide ~width:3 ~depth:2 in
  let rng = Rng.create ~seed:505 () in
  let ins = Array.init 4 (fun _ -> Rng.bool rng) in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  let run (module E : Executor.S) ?opts () = E.run_stream ?opts ck (Run_net.source net) cts in
  let scalar_out, _ = run Executor.cpu () in
  let outs, st = run Executor.cpu ~opts:(bopts 2) () in
  Alcotest.(check bool) "executor cpu batched bit-exact" true (outs = scalar_out);
  (match st.Executor.detail with
  | Executor.Cpu_stats s ->
    Alcotest.(check int) "batch size surfaced through detail" 2 s.Tfhe_eval.batch_size
  | _ -> Alcotest.fail "expected cpu stats");
  let outs, st = run (Executor.multicore ~workers:2 ()) ~opts:(bopts 2) () in
  Alcotest.(check bool) "executor multicore batched bit-exact" true (outs = scalar_out);
  (match st.Executor.detail with
  | Executor.Multicore_stats s ->
    Alcotest.(check int) "multicore batch size surfaced" 2 s.Par_eval.batch_size;
    Alcotest.(check bool) "multicore bsk traffic accounted" true
      (s.Par_eval.bsk_bytes_streamed > 0)
  | _ -> Alcotest.fail "expected multicore stats")

let () =
  Alcotest.run "batch"
    [
      ( "lwe_array",
        [
          QCheck_alcotest.to_alcotest test_lwe_array_roundtrip;
          QCheck_alcotest.to_alcotest test_lwe_array_row_ops;
          QCheck_alcotest.to_alcotest test_lwe_array_aliasing;
          Alcotest.test_case "slice and blit" `Quick test_lwe_array_slice_blit;
          Alcotest.test_case "wire roundtrip and rejection" `Quick test_lwe_array_wire;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "bootstrap_batch = scalar bootstraps" `Slow
            test_bootstrap_batch_matches_scalar;
          QCheck_alcotest.to_alcotest test_bootstrap_batch_rows;
          Alcotest.test_case "mux_gate_in = mux_gate" `Slow test_mux_gate_in_matches_mux_gate;
        ] );
      ( "executors",
        [
          QCheck_alcotest.to_alcotest test_batched_matches_scalar;
          Alcotest.test_case "non-divisible wave" `Slow test_non_divisible_wave;
          Alcotest.test_case "key traffic drops with batch" `Slow
            test_key_traffic_drops_with_batch;
          Alcotest.test_case "executor ?batch knob" `Slow test_executor_batch_knob;
          Alcotest.test_case "LUT rotations counted once" `Slow test_lut_rotation_counts;
          Alcotest.test_case "par batches LUT cells per domain" `Slow test_par_batches_lut_cells;
        ] );
    ]

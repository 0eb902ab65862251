(* Shared probe helpers for the executors.

   The wave driver emits the same per-wave counter vocabulary for every
   backend, so the flat metrics export is comparable across Cpu /
   Multicore / Multiprocess:
   [bootstraps], [key_switches], [ffts], [nots], [wave_width],
   [alloc_words], plus two noise gauges sampled once per run from the
   keyset's parameter set.

   FFTs are counted analytically rather than by instrumenting the kernel:
   one bootstrapped gate runs n CMUX iterations, and each external product
   decomposes (k+1) polynomials into l parts, transforming each part
   forward plus producing (k+1) inverse transforms — n·(k+1)·(l+1)
   transforms of size ring_n per gate, a constant of the parameter set. *)

open Pytfhe_tfhe
module Trace = Pytfhe_obs.Trace

let ffts_per_bootstrap (p : Params.t) =
  p.lwe.n * (p.tlwe.k + 1) * (p.tgsw.l + 1)

(* Bootstrapping refreshes noise, so these are constants of the parameter
   set rather than per-gate measurements: the margin (1/8, the message
   amplitude) over the worst-case phase stdev at the sign decision, and
   the resulting per-gate failure probability. *)
let noise_gauges tr (p : Params.t) =
  let sigma = sqrt (Noise.worst_gate_input p).Noise.variance in
  Trace.gauge tr ~name:"noise_margin_sigma"
    (if sigma > 0. then 0.125 /. sigma else Float.max_float);
  Trace.gauge tr ~name:"gate_failure_probability"
    (Noise.gate_failure_probability p)

(* The crypto-cost counters of [bootstraps] blind rotations, each followed
   by one key switch.  Emitted wherever the rotations run: per wave by the
   wave driver, per shard by a multiprocess worker. *)
let crypto_counters tr (p : Params.t) ~bootstraps =
  Trace.counter tr ~name:"bootstraps" (float_of_int bootstraps);
  Trace.counter tr ~name:"key_switches" (float_of_int bootstraps);
  Trace.counter tr ~name:"ffts"
    (float_of_int (bootstraps * ffts_per_bootstrap p))

let wave_counters tr ~nots ~width ~alloc_words =
  Trace.counter tr ~name:"nots" (float_of_int nots);
  Trace.counter tr ~name:"wave_width" (float_of_int width);
  Trace.counter tr ~name:"alloc_words" alloc_words

(* [Gc.allocated_bytes] only reflects a domain's full minor heap after a
   flush; good enough for a per-wave counter without perturbing the run
   (same caveat as the micro bench). *)
let alloc_words () = Gc.allocated_bytes () /. 8.

(* Key-traffic units for the batched kernels: bytes of one
   bootstrapping-key entry in FFT form and of one key-switch digit block.
   Multiplying the batch counters by these gives the bytes actually
   streamed from the keys, the quantity batching amortizes. *)
let bsk_row_bytes (p : Params.t) = Bootstrap.row_bytes p

let ks_block_bytes (p : Params.t) = (1 lsl p.ks.base_bit) * (p.lwe.n + 1) * 4

(* Per-wave counters for the batched execution path, emitted in addition to
   {!wave_counters} when a batched executor runs traced.  [batch_fill] is
   the mean occupancy of the launches in this wave (1.0 = every launch
   full). *)
let batch_wave_counters tr (p : Params.t) ~cap ~launches ~gates ~bsk_rows ~ks_blocks =
  Trace.counter tr ~name:"batch_waves" 1.;
  Trace.counter tr ~name:"batch_launches" (float_of_int launches);
  if launches > 0 && cap > 0 then
    Trace.counter tr ~name:"batch_fill"
      (float_of_int gates /. float_of_int (launches * cap));
  Trace.counter tr ~name:"bsk_bytes_streamed"
    (float_of_int (bsk_rows * bsk_row_bytes p));
  Trace.counter tr ~name:"ks_bytes_streamed"
    (float_of_int (ks_blocks * ks_block_bytes p))

(* Scheduler-tick counters for the FHE-as-a-service layer: admission-queue
   depth, cross-request batch occupancy — [service_batch_fill] is mean
   gates per launch, so a value above 1.0 on serial-chain workloads means
   gates from different requests really shared a bootstrap wave — and
   per-tenant wire traffic. *)
let service_counters tr ~queue_depth ~active ~launches ~gates ~cap =
  Trace.counter tr ~name:"service_queue_depth" (float_of_int queue_depth);
  Trace.counter tr ~name:"service_active_requests" (float_of_int active);
  Trace.counter tr ~name:"service_batch_launches" (float_of_int launches);
  if launches > 0 then begin
    Trace.counter tr ~name:"service_batch_gates" (float_of_int gates);
    Trace.counter tr ~name:"service_batch_fill"
      (float_of_int gates /. float_of_int launches);
    if cap > 0 then
      Trace.counter tr ~name:"service_batch_occupancy"
        (float_of_int gates /. float_of_int (launches * cap))
  end

let tenant_bytes tr ~id ~bytes_in ~bytes_out =
  Trace.counter tr
    ~name:(Printf.sprintf "service_bytes_in[%s]" id)
    (float_of_int bytes_in);
  Trace.counter tr
    ~name:(Printf.sprintf "service_bytes_out[%s]" id)
    (float_of_int bytes_out)

(** Real multicore TFHE execution on OCaml 5 domains.

    Where {!Sched_cpu} only *prices* the paper's distributed-CPU backend
    through a cost model, this executor actually runs every bootstrapped
    gate on LWE ciphertexts across a pool of domains.  The program is cut
    into waves by {!Stream_exec.run_waves}; each wave's bootstrapped tasks
    are statically chunked over the pool, with unary [Not] gates folded in
    after each wave's barrier.  Every domain evaluates through a private
    {!Pytfhe_tfhe.Gates.context}, so no TGSW workspace, FFT scratch or
    test-vector buffer is shared.

    Outputs are bit-exact with the sequential executor — same ciphertexts,
    same output order — for any worker count. *)

type stats = {
  workers : int;  (** Domains used (including the calling one). *)
  bootstraps_executed : int;
      (** Blind rotations performed (LUT cells sharing an operand tuple
          share one). *)
  nots_executed : int;
  per_domain_bootstraps : int array;  (** Blind rotations per domain. *)
  per_domain_busy : float array;
      (** Seconds each domain spent inside gate kernels (excludes barrier
          waits); their sum approximates single-core compute time. *)
  wave_wall : float array;  (** Wall seconds per executed wave. *)
  wave_width : int array;  (** Bootstrapped tasks per executed wave. *)
  wall_time : float;  (** End-to-end wall seconds. *)
  achieved_speedup : float;
      (** Total busy time / wall time — the parallelism actually realised
          on this machine. *)
  ideal_speedup : float;
      (** Wave-synchronous bound for the executed waves and worker count:
          Σ width / Σ ceil(width / workers).  What {!Sched_cpu} predicts
          with zero overheads. *)
  batch_size : int;  (** The [opts.batch] capacity used; 0 on the scalar path. *)
  batch_launches : int;  (** Batched kernel launches summed over domains. *)
  bsk_bytes_streamed : int;
      (** Bootstrapping-key bytes streamed by the batched kernels, summed
          over domains; 0 on the scalar path. *)
  ks_bytes_streamed : int;  (** Key-switch table bytes streamed; 0 scalar. *)
}

val run_stream :
  ?workers:int ->
  ?opts:Exec_opts.t ->
  ?window:int ->
  Pytfhe_tfhe.Gates.cloud_keyset ->
  (unit -> bytes option) ->
  Pytfhe_tfhe.Lwe.sample array ->
  Pytfhe_tfhe.Lwe.sample array * stats
(** Execute an assembled binary pulled from a chunked source through
    {!Stream_exec.run_waves} on [workers] domains (default:
    [Domain.recommended_domain_count ()]); [workers = 1] degenerates to
    sequential execution on the calling domain, with no domains spawned.
    Each wave's classic gates are statically chunked over the pool and its
    LUT rotation units distributed whole, so a shared rotation happens
    once.  Raises [Invalid_argument] on input arity mismatch or
    [workers < 1].

    With [opts.batch = Some b] (b ≥ 1) each domain walks its share of a
    wave — gates and rotation units alike — in sub-batches of at most [b]
    through a private key-streaming batch context
    ({!Pytfhe_tfhe.Gates.batch_context}) instead of one by one, so the
    bootstrapping key is streamed once per sub-batch per domain.  Outputs
    are ciphertext-bit-exact with the sequential executor for any
    workers × batch × window combination.

    With an enabled [opts.obs] sink, each domain writes chunk spans to its
    own lock-free ["domain d"] track (drained at the wave barrier, whose
    mutex handshake orders the buffers), and the wave driver emits one
    span plus the standard counter set per wave on a ["waves"] track (plus
    the batch counter set when batched). *)

val ideal_speedup : Pytfhe_circuit.Levelize.schedule -> int -> float
(** The wave-synchronous speedup bound reported in {!stats}, exposed for
    benches that sweep worker counts without executing. *)

val pp_stats : Format.formatter -> stats -> unit

(** The unified executor API: one signature every real backend implements,
    one stats record every caller consumes, one options record every
    caller passes.

    The sequential, multicore and multiprocess executors all run the
    assembled binary through one wave driver ({!Stream_exec.run_waves});
    this module packages them as first-class modules of a common
    signature {!S} so callers — the server, the CLI, the bench harness,
    the service — select a backend as a value and handle results
    uniformly.  Backend-specific numbers stay reachable through
    {!type-stats.detail}. *)

type opts = Exec_opts.t = {
  obs : Pytfhe_obs.Trace.sink;
      (** Tracing sink; {!Pytfhe_obs.Trace.null} disables all probes. *)
  batch : int option;
      (** [Some b] routes batching-capable executors through the
          key-streaming batched kernel in sub-batches of at most [b]
          gates; [None] is the scalar per-gate path. *)
}
(** The consolidated execution options.  Build one by updating
    {!default_opts}: [{ Executor.default_opts with batch = Some 8 }]. *)

val default_opts : opts
(** [{ obs = Trace.null; batch = None }]. *)

type detail =
  | Cpu_stats of Tfhe_eval.stats
  | Multicore_stats of Par_eval.stats
  | Multiprocess_stats of Dist_eval.stats

type stats = {
  backend : string;  (** The implementing module's {!S.name}. *)
  workers : int;  (** Domains or processes used; 1 for the CPU backend. *)
  bootstraps_executed : int;
      (** Blind rotations performed; fewer than the bootstrapped tasks
          when LUT cells shared a rotation. *)
  nots_executed : int;
  wall_time : float;  (** End-to-end wall seconds. *)
  wave_wall : float array;  (** Wall seconds per executed wave. *)
  wave_width : int array;  (** Bootstrapped tasks per executed wave. *)
  detail : detail;  (** The backend's full native stats. *)
}

module type S = sig
  val name : string

  val run_stream :
    ?opts:opts ->
    ?window:int ->
    Pytfhe_tfhe.Gates.cloud_keyset ->
    (unit -> bytes option) ->
    Pytfhe_tfhe.Lwe.sample array ->
    Pytfhe_tfhe.Lwe.sample array * stats
  (** Execute an assembled binary pulled from a chunked source through
      {!Stream_exec.run_waves}, in segments of at most [window] queued
      bootstraps (default 32768; [max_int] runs one segment, whose waves
      are exactly {!Pytfhe_circuit.Levelize.waves}).  Feed a resident
      binary with {!Pytfhe_circuit.Binary.source_of_bytes}, a file with
      {!Pytfhe_circuit.Binary.read_source}; callers holding a netlist
      assemble it first ({!Pytfhe_circuit.Binary.assemble}).  Inputs and
      outputs follow the binary's declaration order.
      [stats.wave_width]/[wave_wall] cover executed waves in order. *)
end
(** Outputs are ciphertext-bit-exact across all implementations, batch
    sizes and windows.  The multiprocess backend raises
    [Invalid_argument] when [opts] asks for batching (batching is
    worker-side there). *)

val cpu : (module S)
(** {!Stream_exec.run_encrypted_stream} — sequential, the correctness
    baseline.  Name ["cpu"]. *)

val multicore : ?workers:int -> unit -> (module S)
(** {!Par_eval} on [workers] domains (default
    [Domain.recommended_domain_count ()]).  Name ["par"]. *)

val multiprocess : ?workers:int -> ?config:Dist_eval.config -> unit -> (module S)
(** {!Dist_eval} on [config.workers] processes; [config] wins over
    [workers] (default: [Dist_eval.config 2]).  Name ["dist"].  The usual
    caveat applies: the host executable must call
    {!Dist_eval.worker_entry} first in main. *)

val pp_stats : Format.formatter -> stats -> unit
(** Uniform one-line rendering, followed by the backend's own [pp] where
    it has one. *)

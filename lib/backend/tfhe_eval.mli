(** Gate dispatch for the encrypted executors, and the stats record of the
    sequential one.

    Every executor runs a program the same way: the assembled binary goes
    through {!Stream_exec.run_waves}, and a backend-specific wave runner
    evaluates each wave's bootstrapped work.  This module holds what those
    runners share — the TFHE kernel behind each IR gate type — plus the
    stats the sequential runner ({!Stream_exec.run_encrypted_stream},
    packaged as {!Executor.cpu}) reports. *)

type stats = {
  bootstraps_executed : int;
      (** Blind rotations performed: one per classic gate, one per LUT
          rotation unit (multi-input cells over the same operand tuple
          share one). *)
  nots_executed : int;
  wall_time : float;  (** Seconds of real local compute. *)
  wave_wall : float array;  (** Wall seconds per executed wave. *)
  wave_width : int array;  (** Bootstrapped tasks per executed wave. *)
  batch_size : int;  (** The [opts.batch] capacity used; 0 on the scalar path. *)
  batch_launches : int;  (** Batched bootstrap kernel launches (0 scalar). *)
  bsk_bytes_streamed : int;
      (** Bytes of bootstrapping key streamed from memory by the batched
          kernel ([Bootstrap] row counter × {!Exec_obs.bsk_row_bytes});
          0 on the scalar path. *)
  ks_bytes_streamed : int;
      (** Bytes of key-switch table streamed by the batched kernel; 0 on
          the scalar path. *)
}

val plan_of : Pytfhe_circuit.Gate.t -> Pytfhe_tfhe.Gates.combine_plan
(** The linear phase combination of a bootstrapped IR gate, as fed to the
    batched kernels.  Raises [Invalid_argument] on [Not], which is
    evaluated noiselessly. *)

val gate_of : Pytfhe_circuit.Gate.t ->
  Pytfhe_tfhe.Gates.cloud_keyset -> Pytfhe_tfhe.Lwe.sample -> Pytfhe_tfhe.Lwe.sample ->
  Pytfhe_tfhe.Lwe.sample
(** The bootstrapped-gate implementation behind each IR gate type. *)

val apply_gate :
  Pytfhe_tfhe.Gates.context -> Pytfhe_circuit.Gate.t ->
  Pytfhe_tfhe.Lwe.sample -> Pytfhe_tfhe.Lwe.sample -> Pytfhe_tfhe.Lwe.sample
(** Same dispatch through an explicit per-thread evaluation context — the
    primitive every scalar wave runner (and every multicore domain) uses.
    [Not] ignores its second operand. *)

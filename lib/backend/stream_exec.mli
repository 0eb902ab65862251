(** Execution of PyTFHE binaries.

    The paper's executor never builds a graph structure: the sequential
    index "naming" of Fig. 5 lets it scan the 128-bit instruction stream
    once, keeping a value table indexed by gate number (§IV-C's "fast TFHE
    program DAG traversal").  This module holds both forms of that scan:

    - {!run} / {!run_encrypted}: one in-order pass over any value domain —
      the plaintext and scalar-ciphertext references;
    - {!run_waves}: the segmented wave driver every encrypted backend
      (cpu, par, dist, and the service) executes programs through, with
      the sequential backend's runner {!run_encrypted_stream}.

    No netlist is materialised either way, so memory is one value per
    instruction. *)

type 'v ops = {
  v_gate : Pytfhe_circuit.Gate.t -> 'v -> 'v -> 'v;
  v_input : int -> 'v;  (** Fetch input [i] (in input-instruction order). *)
  v_lut : arity:int -> table:int -> 'v array -> 'v;
      (** Evaluate one programmable LUT cell.  Arity-1 cells receive a
          classic operand; arity-2/3 cells receive lutdom operands.  The
          result is lutdom-encoded. *)
  v_lut_view : 'v -> 'v;  (** The free lutdom → classic view. *)
}

val run : ?opts:Exec_opts.t -> 'v ops -> bytes -> 'v array
(** Execute an assembled binary over any value domain; returns the outputs
    in output-instruction order.  Raises [Failure] on malformed streams
    (bad magic sizes, forward references, missing header) and
    [Pytfhe_util.Wire.Corrupt] on structurally corrupt LUT records — a
    multi-input cell whose operand is not lutdom-encoded (the per-record
    field checks already live in the {!Pytfhe_circuit.Binary} decoder).
    With an enabled [opts.obs] sink, emits one span for the whole pass plus
    the instruction-mix counters on a ["stream"] track.  The stream walk is
    inherently scalar: [opts.batch] raises [Invalid_argument] rather than
    being silently dropped. *)

val run_bits : bytes -> bool array -> bool array
(** Plaintext-bit instantiation. *)

val run_encrypted :
  ?opts:Exec_opts.t ->
  Pytfhe_tfhe.Gates.cloud_keyset -> bytes -> Pytfhe_tfhe.Lwe.sample array ->
  Pytfhe_tfhe.Lwe.sample array
(** Homomorphic instantiation: each gate instruction triggers one
    bootstrapped-gate evaluation, in instruction order.  This is the
    scalar reference the wave executors are differentially tested
    against.  Traced runs add key-switch/FFT counters and the noise gauges
    on a ["stream-crypto"] track.  Same [Invalid_argument] contract as
    {!run} for [opts.batch]. *)

val run_source :
  ?obs:Pytfhe_obs.Trace.sink -> 'v ops -> (unit -> bytes option) -> 'v array
(** Like {!run}, pulling the binary from a chunked source
    ({!Pytfhe_circuit.Binary.iter_source}) instead of a resident byte
    buffer.  Headers carrying {!Pytfhe_circuit.Binary.streamed_gate_total}
    skip the gate-budget check. *)

(** {1 Segmented wave driver}

    Instructions are consumed as they arrive; bootstrapped gates and LUT
    cells are queued by wave (level = 1 + max operand level within the
    current segment) and handed to a backend callback one wave at a time,
    so batching and parallel backends see the wave structure of the
    levelized program without a netlist.  When the queued bootstrap count
    reaches [window] the segment flushes level by level, bounding peak
    queued work; with [window = max_int] there is one segment and the
    waves are exactly {!Pytfhe_circuit.Levelize.waves}.  NOT gates are
    evaluated inline (immediately when their operand is computed, after
    the producing wave otherwise), matching {!Pytfhe_circuit.Levelize.waves}
    semantics. *)

type task =
  | T_gate of {
      gate : Pytfhe_circuit.Gate.t;
      a : Pytfhe_tfhe.Lwe.sample;
      b : Pytfhe_tfhe.Lwe.sample;
    }  (** One bootstrapped binary gate; operands are classic views. *)
  | T_lut of {
      arity : int;
      table : int;
      operands : Pytfhe_tfhe.Lwe.sample array;
      ins : int array;
    }
      (** One LUT cell; arity-1 operands are classic views, arity-2/3 are
          raw lutdom values.  [ins] are the stream indices of the operands —
          tasks of one wave sharing the same [ins] may share blind
          rotations. *)

type wave_result = {
  results : Pytfhe_tfhe.Lwe.sample array;  (** One per task, in task order. *)
  rotations : int;
      (** Blind rotations actually performed — fewer than the tasks when
          LUT cells shared a rotation. *)
  counters : (string * int) list;
      (** Backend-specific per-wave trace counters (dist: wire bytes,
          retries, reassignments …), emitted on the wave's track. *)
}

type probe = {
  track : string;  (** Trace track of the per-wave spans and counters. *)
  params : Pytfhe_tfhe.Params.t;  (** For the noise gauges and FFT counts. *)
  remote_crypto : bool;
      (** The rotations run in processes that report their own
          bootstrap/key-switch/FFT counters, so the wave counters omit
          them (no double counting). *)
  batch : (int * (unit -> Pytfhe_tfhe.Gates.batch_counters)) option;
      (** Batch capacity and the backend's running kernel counters: adds
          the batch counter set to every traced wave. *)
}
(** How {!run_waves} traces a backend.  With an enabled sink every
    executed wave gets a [wave] span, the {!Exec_obs.wave_counters} set
    (plus {!Exec_obs.crypto_counters} unless [remote_crypto]), the batch
    counters when [batch] is set and the runner's own [counters]; the
    noise gauges are sampled once per run. *)

type wave_stats = {
  segments_run : int;
  waves_run : int;
  bootstraps_run : int;  (** Sum of the runners' [rotations]. *)
  nots_run : int;
  wave_widths : int array;  (** Tasks per executed wave, in order. *)
  wave_wall : float array;  (** Wall seconds per executed wave. *)
}

val run_waves :
  ?obs:Pytfhe_obs.Trace.sink ->
  ?window:int ->
  probe ->
  run_wave:(task array -> wave_result) ->
  (unit -> bytes option) ->
  Pytfhe_tfhe.Lwe.sample array ->
  Pytfhe_tfhe.Lwe.sample array * wave_stats
(** [run_waves probe ~run_wave read inputs] executes a streamed binary
    wave by wave; [inputs] follow the input-instruction order, outputs the
    output-instruction order.  Default [window] is 32768 queued bootstraps
    per segment.  Raises [Invalid_argument] when [inputs] does not match
    the program's input count; otherwise the error contract matches
    {!run}. *)

(** {2 Encrypted wave runners}

    The parts backends assemble their [run_wave] from.  A wave splits into
    its classic gates and its LUT cells grouped into rotation units; each
    part runs scalar or through the key-streaming batch kernel, and all
    combinations are ciphertext-bit-exact with each other.  Results land
    in [out] at their task positions. *)

type stream_cell =
  | C_sign of { idx : int; table : int; operand : Pytfhe_tfhe.Lwe.sample }
  | C_group of {
      mutable idxs : int list;
      mutable tables : int list;
      arity : int;
      raws : Pytfhe_tfhe.Lwe.sample array;
    }
(** One rotation unit: an arity-1 cell ([C_sign]), or every multi-input
    cell of the wave over one operand tuple ([C_group], lists reversed and
    aligned).  [idx]/[idxs] are task positions in the wave. *)

val split_wave : task array -> int array * stream_cell array
(** The task positions of the wave's classic gates, and its LUT tasks as
    rotation units in first-appearance order.  The wave's rotation count
    is the sum of the two lengths. *)

val run_gates :
  Pytfhe_tfhe.Gates.context -> task array -> int array ->
  Pytfhe_tfhe.Lwe.sample option array -> unit
(** Scalar evaluation of the classic gates at the given positions. *)

val run_gates_batched :
  Pytfhe_tfhe.Gates.batch_context -> batch:int -> n:int -> task array -> int array ->
  Pytfhe_tfhe.Lwe.sample option array -> unit
(** The same through the batch kernel, in launches of at most [batch]
    gates; [n] is the LWE dimension. *)

val run_cells :
  Pytfhe_tfhe.Gates.context -> stream_cell array -> Pytfhe_tfhe.Lwe.sample option array -> unit
(** Scalar evaluation of rotation units: one indicator rotation per group,
    one select + key switch per member. *)

val run_cells_batched :
  Pytfhe_tfhe.Gates.batch_context -> batch:int -> n:int -> stream_cell array ->
  Pytfhe_tfhe.Lwe.sample option array -> unit
(** The same through the mixed-job batch kernel, in launches of at most
    [batch] rotation units (a group is never split). *)

val run_encrypted_stream :
  ?opts:Exec_opts.t ->
  ?window:int ->
  Pytfhe_tfhe.Gates.cloud_keyset ->
  (unit -> bytes option) ->
  Pytfhe_tfhe.Lwe.sample array ->
  Pytfhe_tfhe.Lwe.sample array * Tfhe_eval.stats
(** The sequential backend: {!run_waves} with every wave on the calling
    thread — scalar when [opts.batch] is unset, through the key-streaming
    batch kernel otherwise.  Traced runs put the wave spans on a ["cpu"]
    track.  Outputs are ciphertext-bit-exact with {!run_encrypted}. *)

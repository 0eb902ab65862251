(** Real multi-process distributed TFHE execution.

    The paper's distributed CPU backend (§IV-D) runs TFHE gates on a Ray
    cluster; {!Sched_cpu} only prices that design, and {!Par_eval} runs it
    on shared-memory domains.  This executor crosses the process boundary
    for real: it spawns [workers] OS processes, ships the cloud keyset to
    each once at startup, and drives the wave schedule by sending
    per-wave gate shards — gate opcodes plus input ciphertexts, serialized
    through {!Pytfhe_util.Wire} inside length-prefixed frames over
    [Unix.socketpair] channels — and collecting result ciphertexts at a
    wave barrier.

    Outputs are bit-exact with the sequential executor for any worker
    count: every gate performs the identical torus operation sequence, and
    the 32-bit ciphertext wire encoding round-trips exactly.

    {b Failure semantics.}  The coordinator never trusts a worker:

    - each request carries a deadline; a slow worker gets [max_retries]
      backoff extensions before it is declared lost;
    - crashed workers are detected early by a [waitpid(WNOHANG)] heartbeat
      and by EOF on their socket, not just by timeout;
    - a reply that fails to parse ({!Pytfhe_util.Wire.Corrupt}, truncated
      frame, wrong arity) is dropped and the shard re-requested — a
      tampered frame can cost a retry, never correctness;
    - a lost worker's shard is reassigned to the least-loaded survivor, so
      execution degrades gracefully down to one worker.  Only the loss of
      every worker raises [Failure].

    Workers are spawned by re-executing the host binary with the
    [PYTFHE_DIST_WORKER] environment variable set (posix_spawn under the
    hood, via [Unix.create_process]), because the OCaml 5 runtime forbids
    [Unix.fork] in any process that has ever created a domain — and
    {!Par_eval} creates domains.  {b Every executable that calls
    {!run_stream} must call {!worker_entry} as the first thing in main};
    the startup handshake fails fast, with a message naming the missing
    hook, if it does not.

    The protocol is documented in [docs/backends.md]. *)

val worker_entry : unit -> unit
(** In a process spawned by {!run_stream} (recognized by the
    [PYTFHE_DIST_WORKER] environment variable), serves the gate protocol on the stdin socket
    and [_exit]s when the coordinator hangs up — it never returns.  In any
    other process it is a no-op.  Call it first in main of every
    executable that uses {!run_stream}. *)

(** {2 Fault injection}

    Faults are shipped to workers in the hello frame and executed by the
    worker itself, so the failure is genuine (a real [SIGKILL], a real
    truncated TCP-style frame) rather than simulated in the coordinator.
    Used by the fault-injection tests and the [dist] bench experiment. *)

type fault_action =
  | Crash  (** [SIGKILL] self while holding the request (mid-wave death). *)
  | Stall of float  (** Sleep this many seconds before evaluating. *)
  | Flip_reply
      (** Send a framing-correct reply whose payload magic is bit-flipped —
          exercises the corrupt-frame retry path. *)
  | Truncate_reply
      (** Announce a full frame, send half of it, and exit — exercises the
          EOF-mid-frame path. *)

type fault = {
  victim : int;  (** Worker index the fault applies to. *)
  after_requests : int;  (** Fires while serving this (1-based) request. *)
  action : fault_action;
}

type config = {
  workers : int;
  request_timeout : float;  (** Seconds before a request is suspect. *)
  max_retries : int;  (** Backoff extensions / re-sends per shard. *)
  backoff : float;  (** Deadline multiplier per retry ([>= 1]). *)
  heartbeat_interval : float;  (** Liveness-poll period while waiting. *)
  faults : fault list;  (** Fault-injection schedule (tests only). *)
}
(** Shards of classic gates travel as struct-of-arrays [DRQ2]/[DRP2]
    frames (gate codes plus two flat {!Pytfhe_tfhe.Lwe_array} operand
    waves, evaluated through the worker's row-batched kernels); shards
    carrying LUT cells as per-record [DREQ]/[DREP] frames.  Both are
    ciphertext-bit-exact. *)

val config :
  ?request_timeout:float ->
  ?max_retries:int ->
  ?backoff:float ->
  ?heartbeat_interval:float ->
  ?faults:fault list ->
  int ->
  config
(** [config workers] with defaults: 60 s timeout, 2 retries, 2x backoff,
    0.25 s heartbeat, no faults.  Raises
    [Invalid_argument] on nonsense ([workers < 1], non-positive timeout,
    [backoff < 1]). *)

type stats = {
  workers_started : int;
  workers_lost : int;  (** Workers that crashed or were declared lost. *)
  bootstraps_executed : int;
  nots_executed : int;
  requests_sent : int;  (** Shard requests, including re-sends. *)
  retries : int;  (** Deadline extensions plus corrupt-frame re-sends. *)
  reassignments : int;  (** Shards moved to a surviving worker. *)
  corrupt_frames : int;  (** Replies rejected by the parser. *)
  heartbeat_misses : int;
      (** Times the [waitpid(WNOHANG)] heartbeat found a worker dead before
          its request deadline expired. *)
  keyset_bytes : int;  (** Serialized cloud keyset size (shipped once per worker). *)
  bytes_to_workers : int;
  bytes_from_workers : int;
  startup_time : float;  (** Fork + keyset shipping seconds. *)
  dispatch_time : float;
      (** Coordinator seconds spent serializing and writing shard requests
          — the measured analogue of {!Sched_cpu}'s [dispatch_time]. *)
  transfer_time : float;
      (** Round-trip seconds not accounted to worker compute: wire
          transfer, frame parsing, barrier waits. *)
  compute_time : float;  (** Sum of worker-reported gate-evaluation seconds. *)
  wave_wall : float array;  (** Wall seconds per executed wave. *)
  wave_width : int array;  (** Bootstrapped tasks per executed wave. *)
  wall_time : float;
}

val run_stream :
  ?opts:Exec_opts.t ->
  ?window:int ->
  config ->
  Pytfhe_tfhe.Gates.cloud_keyset ->
  (unit -> bytes option) ->
  Pytfhe_tfhe.Lwe.sample array ->
  Pytfhe_tfhe.Lwe.sample array * stats
(** [run_stream cfg cloud read inputs] forks [cfg.workers] processes and
    executes the assembled binary pulled from [read] through
    {!Stream_exec.run_waves}: each wave's resolved-operand tasks convert
    directly into shard requests, so the coordinator never materialises a
    program graph and workers stay oblivious to it.  Outputs follow the
    output-instruction order and are ciphertext-bit-exact with the
    sequential executor for any worker count and any [window].  Raises
    [Invalid_argument] on input arity mismatch and [Failure] if every
    worker is lost.

    With an enabled [opts.obs] sink, the hello frame carries the sink's
    epoch and each worker collects per-shard spans and crypto counters in
    a local sink, shipping them back in an optional [DTRC] frame sent just
    before each reply; the coordinator merges them onto per-worker tracks,
    and the wave driver adds wave spans with wire-byte / retry /
    reassignment / heartbeat-miss counters and the noise gauges on a
    ["coordinator"] track.  A worker lost mid-wave truncates the trace (its
    unshipped spans die with it) but never corrupts it — a malformed
    [DTRC] frame is counted in [corrupt_frames] and dropped.

    Batching is worker-side here, so a caller passing [opts.batch] gets
    [Invalid_argument] rather than a silently dropped optimization. *)

val pp_stats : Format.formatter -> stats -> unit

(** {2 Handshake internals}

    The DHEL hello-frame builder and parser, exposed so the test suite can
    pin the transform-negotiation contract without spawning processes. *)

val hello_bytes :
  index:int ->
  transform:Pytfhe_fft.Transform.kind ->
  obs:Pytfhe_obs.Trace.sink ->
  faults:fault list ->
  keyset_blob:string ->
  Bytes.t
(** The coordinator's DHEL frame payload: magic, worker index, the
    coordinator's transform tag, tracing plumbing, fault schedule and the
    serialized cloud keyset. *)

val parse_hello :
  Pytfhe_util.Wire.reader ->
  int * bool * float * fault list * Pytfhe_tfhe.Gates.cloud_keyset
(** Worker-side parse of a DHEL payload:
    [(index, obs_on, obs_epoch, faults, keyset)].  Raises
    [{!Pytfhe_util.Wire}.Corrupt] on an unknown transform code or when the
    coordinator's transform tag disagrees with the transform recorded in
    the keyset's own parameters — a coordinator/worker mismatch must fail
    the handshake, not silently mis-evaluate. *)

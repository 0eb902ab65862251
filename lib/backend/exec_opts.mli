(** Consolidated execution options.

    The one value every executor's run function takes, and every layer
    above (the server, the CLI, the bench harness) passes through;
    {!Executor} re-exports it as [Executor.opts] so callers outside the
    backend library never need to name this module.

    The record lives below {!Executor} in the dependency order on purpose:
    {!Par_eval}, {!Dist_eval} and {!Stream_exec} accept it natively
    without depending on the first-class-module layer. *)

type t = {
  obs : Pytfhe_obs.Trace.sink;
      (** Tracing sink; {!Pytfhe_obs.Trace.null} disables all probes. *)
  batch : int option;
      (** [Some b] routes batching-capable executors through the
          key-streaming batched kernel in sub-batches of at most [b]
          gates; [None] is the scalar per-gate path. *)
}

val default : t
(** [{ obs = Trace.null; batch = None }]. *)

val check_scalar_only : who:string -> t -> unit
(** Raise [Invalid_argument] if [t] asks for batching — for backends where
    the knob cannot apply and silently dropping it would mislead (the
    multiprocess and in-order instruction-stream executors). *)

(** In-memory span recorder for the traced run.

    A span is a named interval with the span that was open when it began
    as its parent, plus an optional request id for service requests.
    Recording is off until {!set_enabled}; while off, {!with_span} only calls
    its function.  Only the main thread records. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span. *)
  req : int;  (** Service request id, 0 when the span is not a request. *)
  t0 : float;
  t1 : float;
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val with_span : string -> (unit -> 'a) -> 'a
(** Time [f ()] as a child of the innermost open span. *)

val record : ?req:int -> string -> t0:float -> t1:float -> unit
(** Add an interval timed elsewhere (a request seen by a reader thread) as
    a child of the innermost open span. *)

val spans : unit -> span list
(** Every span recorded so far, in start order. *)

val durations : string -> float array
(** Durations of every span with this name, in start order. *)

type row = { row_name : string; count : int; total : float; self : float }

val table : span list -> row list
(** Per-name totals.  A span's self time is its duration minus the part
    of it that its children cover (overlapping children counted once). *)

val write_json : string -> span list -> unit

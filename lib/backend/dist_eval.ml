(* Real multi-process distributed evaluation of TFHE programs.

   Where Sched_cpu *prices* the paper's Ray cluster (§IV-D, Fig. 10) through
   a cost model, this executor actually crosses the process boundary: it
   spawns N worker processes, ships the cloud keyset once at startup, and
   then drives the wave driver's schedule by sending each worker a shard
   of every wave's rotation units — input ciphertexts serialized through
   Wire inside length-prefixed frames over Unix socketpairs — and
   collecting the result ciphertexts at a wave barrier.

   Workers are spawned by re-executing the host binary (create_process /
   posix_spawn) with PYTFHE_DIST_WORKER set, not by Unix.fork: the OCaml 5
   runtime permanently forbids fork in any process that has ever created a
   domain, and Par_eval creates domains.  Host executables opt in by
   calling [worker_entry] before anything else in main; a spawned worker
   then serves the gate protocol on its stdin socket and never returns.
   The DRDY handshake below turns a host that forgot the hook into a
   prompt, explicit startup failure instead of a recursive process tree.

   The coordinator is built to survive its workers, not just to use them:

   - every outstanding request has a deadline; expiry triggers a bounded
     number of backoff extensions (a slow worker gets more time) before the
     worker is declared lost, SIGKILLed and its shard reassigned;
   - while waiting, the coordinator heartbeats worker processes with
     waitpid(WNOHANG), so a crashed worker is detected without waiting for
     the request timeout;
   - a reply that fails to parse (Wire.Corrupt, truncated payload, wrong
     arity) is counted, and the request is re-sent — corruption never
     propagates into the value table and never kills the coordinator;
   - loss of a worker degrades capacity gracefully: survivors absorb the
     shard, down to a single worker.  Only losing *every* worker raises.

   Because workers run the sequential backend's own batched wave runners —
   only in another address space, with the operands round-tripped through
   the exact 32-bit wire encoding — the output ciphertexts are bit-exact
   with the sequential executor for any worker count and any fault pattern
   the executor survives. *)

module Gate = Pytfhe_circuit.Gate
module Wire = Pytfhe_util.Wire
module Trace = Pytfhe_obs.Trace
open Pytfhe_tfhe

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

type fault_action =
  | Crash
  | Stall of float
  | Flip_reply
  | Truncate_reply

type fault = { victim : int; after_requests : int; action : fault_action }

let write_fault buf f =
  Wire.write_i64 buf f.victim;
  Wire.write_i64 buf f.after_requests;
  match f.action with
  | Crash -> Wire.write_u8 buf 0
  | Stall s ->
    Wire.write_u8 buf 1;
    Wire.write_f64 buf s
  | Flip_reply -> Wire.write_u8 buf 2
  | Truncate_reply -> Wire.write_u8 buf 3

let read_fault r =
  let victim = Wire.read_i64 r in
  let after_requests = Wire.read_i64 r in
  let action =
    match Wire.read_u8 r with
    | 0 -> Crash
    | 1 -> Stall (Wire.read_f64 r)
    | 2 -> Flip_reply
    | 3 -> Truncate_reply
    | v -> raise (Wire.Corrupt (Printf.sprintf "Dist_eval: unknown fault action %d" v))
  in
  { victim; after_requests; action }

(* ------------------------------------------------------------------ *)
(* Configuration and stats                                             *)
(* ------------------------------------------------------------------ *)

type config = {
  workers : int;
  request_timeout : float;
  max_retries : int;
  backoff : float;
  heartbeat_interval : float;
  faults : fault list;
}

let config ?(request_timeout = 60.0) ?(max_retries = 2) ?(backoff = 2.0)
    ?(heartbeat_interval = 0.25) ?(faults = []) workers =
  if workers < 1 then invalid_arg "Dist_eval.config: workers must be >= 1";
  if request_timeout <= 0.0 then invalid_arg "Dist_eval.config: request_timeout must be > 0";
  if max_retries < 0 then invalid_arg "Dist_eval.config: max_retries must be >= 0";
  if backoff < 1.0 then invalid_arg "Dist_eval.config: backoff must be >= 1";
  { workers; request_timeout; max_retries; backoff; heartbeat_interval; faults }

type stats = {
  workers_started : int;
  workers_lost : int;
  bootstraps_executed : int;
  nots_executed : int;
  requests_sent : int;
  retries : int;
  reassignments : int;
  corrupt_frames : int;
  heartbeat_misses : int;
  keyset_bytes : int;
  bytes_to_workers : int;
  bytes_from_workers : int;
  startup_time : float;
  dispatch_time : float;
  transfer_time : float;
  compute_time : float;
  wave_wall : float array;
  wave_width : int array;
  wall_time : float;
}

(* ------------------------------------------------------------------ *)
(* Framing: shared PTFD envelope (see Framing)                         *)
(* ------------------------------------------------------------------ *)

let frame_magic = Framing.frame_magic

exception Frame_closed = Framing.Frame_closed
exception Frame_timeout = Framing.Frame_timeout

let write_all = Framing.write_all
let write_frame = Framing.write_frame
let read_frame = Framing.read_frame

(* ------------------------------------------------------------------ *)
(* Worker process                                                      *)
(* ------------------------------------------------------------------ *)

(* DHEL hello frame: worker identity, the coordinator's transform tag,
   tracing plumbing (the coordinator's epoch makes worker timestamps
   directly comparable — both sides read the same machine clock), the
   fault schedule and the cloud keyset.  The explicit tag is validated
   against the transform embedded in the keyset's own parameters: a
   coordinator and worker that disagree about the polynomial-product
   backend must fail the handshake with [Wire.Corrupt], not trade
   ciphertexts whose spectra they would interpret differently. *)
let parse_hello r =
  Wire.read_magic r "DHEL";
  let index = Wire.read_i64 r in
  let transform =
    let code = Wire.read_u8 r in
    match Pytfhe_fft.Transform.kind_of_code code with
    | Some k -> k
    | None ->
      raise (Wire.Corrupt (Printf.sprintf "Dist_eval: unknown transform code %d" code))
  in
  let obs_on = Wire.read_bool r in
  let obs_epoch = Wire.read_f64 r in
  let faults = Array.to_list (Wire.read_array r read_fault) in
  let ck = Gates.read_cloud_keyset r in
  if ck.Gates.cloud_params.Params.transform <> transform then
    raise (Wire.Corrupt "Dist_eval: transform mismatch between DHEL tag and keyset");
  (index, obs_on, obs_epoch, faults, ck)

(* A DRQ2 request carries one shard of a wave's rotation units: the
   classic gates first (u8 codes), then the LUT units (arity and truth
   tables: one for an arity-1 cell, every table over the shared operand
   tuple of a multi-input group), then every unit's operands as one flat
   Lwe_array — two rows per gate, [arity] per LUT unit, so a group's
   operands cross the wire once.  The DRP2 reply carries the outputs in the
   same order, one per gate and one per table.  Arity-1 operands travel as
   classic views, multi-input operands lutdom-encoded, exactly as the wave
   runners take them. *)

let write_shard buf ~n tasks gates cells =
  Wire.write_array buf
    (fun buf i ->
      match tasks.(i) with
      | Stream_exec.T_gate { gate; _ } -> Wire.write_u8 buf (Gate.to_code gate)
      | Stream_exec.T_lut _ -> assert false)
    gates;
  Wire.write_array buf
    (fun buf cell ->
      let arity, tables =
        match cell with
        | Stream_exec.C_sign { table; _ } -> (1, [| table |])
        | Stream_exec.C_group g -> (g.arity, Array.of_list (List.rev g.tables))
      in
      Wire.write_u8 buf arity;
      Wire.write_array buf Wire.write_u8 tables)
    cells;
  let operands =
    List.map
      (fun i ->
        match tasks.(i) with
        | Stream_exec.T_gate { a; b; _ } -> [| a; b |]
        | Stream_exec.T_lut _ -> assert false)
      (Array.to_list gates)
    @ List.map
        (function
          | Stream_exec.C_sign { operand; _ } -> [| operand |]
          | Stream_exec.C_group g -> g.raws)
        (Array.to_list cells)
  in
  Lwe_array.write buf (Lwe_array.of_samples ~n (Array.concat operands))

(* The worker side of [write_shard]: the gate tasks, the LUT units with
   their output positions (after the gates, in reply order) and the output
   count.  Anything malformed raises [Wire.Corrupt]. *)
let read_shard r ~n =
  let corrupt msg = raise (Wire.Corrupt ("Dist_eval: " ^ msg)) in
  let codes = Wire.read_array r Wire.read_u8 in
  let units =
    Wire.read_array r (fun r ->
        let arity = Wire.read_u8 r in
        (arity, Wire.read_array r Wire.read_u8))
  in
  let ops = Lwe_array.read r in
  if Lwe_array.dim ops <> n then corrupt "operand dimension mismatch";
  let next = ref 0 in
  let take () =
    if !next >= Lwe_array.length ops then corrupt "too few operands";
    incr next;
    Lwe_array.get ops (!next - 1)
  in
  let tasks =
    Array.map
      (fun code ->
        match Gate.of_code code with
        | Some gate when not (Gate.is_unary gate) ->
          let a = take () in
          let b = take () in
          Stream_exec.T_gate { gate; a; b }
        | Some _ | None -> corrupt (Printf.sprintf "bad gate code %d" code))
      codes
  in
  let pos = ref (Array.length tasks) in
  let cells =
    Array.map
      (fun (arity, tables) ->
        let count = Array.length tables in
        if arity < 1 || arity > 3 || count = 0 || (arity = 1 && count <> 1) then
          corrupt (Printf.sprintf "bad lut%d unit with %d tables" arity count);
        Array.iter
          (fun t ->
            if t lsr (1 lsl arity) <> 0 then
              corrupt (Printf.sprintf "lut%d table %#x out of range" arity t))
          tables;
        let raws = Array.init arity (fun _ -> take ()) in
        let base = !pos in
        pos := base + count;
        if arity = 1 then Stream_exec.C_sign { idx = base; table = tables.(0); operand = raws.(0) }
        else
          Stream_exec.C_group
            {
              idxs = List.rev (List.init count (fun k -> base + k));
              tables = List.rev (Array.to_list tables);
              arity;
              raws;
            })
      units
  in
  if !next <> Lwe_array.length ops then corrupt "too many operands";
  (tasks, cells, !pos)

(* Batch capacity of a worker's launches. *)
let worker_batch_cap = 32

(* The worker is a stateless rotation server: after the hello frame
   (identity, transform tag, fault schedule, cloud keyset) it answers each
   DRQ2 shard with a DRP2 frame carrying the outputs plus the measured
   compute seconds.  The shard runs through the same batched gate and cell
   runners as the sequential backend's [--batch].  All exits go through
   Unix._exit: the child must never run the parent's at_exit handlers or
   flush its inherited stdio buffers. *)
let worker_main fd =
  let hello = read_frame fd in
  let r = Wire.reader_of_string hello in
  let index, obs_on, obs_epoch, faults, ck = parse_hello r in
  (* Build the transform tables once, up front: the shard loop below must
     never find them missing (a worker that built tables mid-request would
     blow its first deadline on large rings). *)
  let p = ck.Gates.cloud_params in
  Params.precompute p;
  let n = p.Params.lwe.Params.n in
  let bc = Gates.batch_context ck ~cap:worker_batch_cap in
  let wsink = if obs_on then Trace.create ~epoch:obs_epoch () else Trace.null in
  let wtr = Trace.new_track wsink ~name:(Printf.sprintf "worker %d" index) in
  (* ready: the keyset is parsed and the batch context built.  Also the
     coordinator's proof that the spawned binary really is a worker. *)
  let rdy = Buffer.create 8 in
  Wire.write_magic rdy "DRDY";
  ignore (write_frame fd (Buffer.to_bytes rdy));
  let served = ref 0 in
  let rec loop () =
    let payload = read_frame fd in
    if String.length payload < 4 then Unix._exit 4;
    (match String.sub payload 0 4 with
    | "DBYE" -> Unix._exit 0
    | "DRQ2" ->
      let r = Wire.reader_of_string payload in
      Wire.read_magic r "DRQ2";
      let req_id = Wire.read_i64 r in
      incr served;
      let due = List.filter (fun f -> f.after_requests = !served) faults in
      if List.exists (fun f -> f.action = Crash) due then
        (* a genuine SIGKILL mid-wave: the request dies with us *)
        Unix.kill (Unix.getpid ()) Sys.sigkill;
      List.iter (fun f -> match f.action with Stall s -> Unix.sleepf s | _ -> ()) due;
      let tasks, cells, outputs = read_shard r ~n in
      let t0 = Unix.gettimeofday () in
      let out = Array.make outputs None in
      Stream_exec.run_gates_batched bc ~batch:worker_batch_cap ~n tasks
        (Array.init (Array.length tasks) Fun.id)
        out;
      Stream_exec.run_cells_batched bc ~batch:worker_batch_cap ~n cells out;
      let t1 = Unix.gettimeofday () in
      let rotations = Array.length tasks + Array.length cells in
      let buf = Buffer.create 4096 in
      Wire.write_magic buf "DRP2";
      Wire.write_i64 buf req_id;
      Wire.write_f64 buf (t1 -. t0);
      Lwe_array.write buf (Lwe_array.of_samples ~n (Array.map Option.get out));
      let reply = Buffer.to_bytes buf in
      (* Ship collected spans in a DTRC frame *before* the reply, so the
         coordinator has always consumed a shard's trace by the time it
         accepts the shard — a worker dying right after the reply (or
         sending a faulted one) loses at most its own last spans,
         truncating the trace but never corrupting it. *)
      if Trace.enabled wsink then begin
        let ep = Trace.epoch wsink in
        Trace.span wtr ~cat:"shard"
          ~name:(Printf.sprintf "req %d (%d rotations)" req_id rotations)
          ~t0:(t0 -. ep) ~t1:(t1 -. ep);
        Exec_obs.crypto_counters wtr p ~bootstraps:rotations;
        match Trace.flush wsink with
        | [] -> ()
        | events ->
          let tb = Buffer.create 1024 in
          Wire.write_magic tb "DTRC";
          Wire.write_i64 tb req_id;
          Wire.write_array tb Trace.write_event (Array.of_list events);
          ignore (write_frame fd (Buffer.to_bytes tb))
      end;
      if List.exists (fun f -> f.action = Flip_reply) due then begin
        (* Framing stays intact; the payload magic is flipped, so the
           coordinator's parser must reject the frame and re-request. *)
        Bytes.set reply 0 (Char.chr (Char.code (Bytes.get reply 0) lxor 0x20));
        ignore (write_frame fd reply)
      end
      else if List.exists (fun f -> f.action = Truncate_reply) due then begin
        (* Announce the full frame, deliver half of it, and die: the
           coordinator sees EOF mid-frame, never a hang. *)
        let len = Bytes.length reply in
        let header = Bytes.create 12 in
        Bytes.blit_string frame_magic 0 header 0 4;
        Bytes.set_int64_le header 4 (Int64.of_int len);
        write_all fd header 0 12;
        write_all fd reply 0 (len / 2);
        Unix._exit 3
      end
      else ignore (write_frame fd reply)
    | _ -> Unix._exit 4);
    loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

type worker = {
  w_index : int;
  pid : int;
  fd : Unix.file_descr;
  mutable alive : bool;
  mutable reaped : bool;
}

type shard = {
  body : string;  (* the DRQ2 payload after the request id *)
  dsts : int array;  (* wave task position of each output, in reply order *)
  mutable owner : worker;
  mutable req_id : int;
  mutable deadline : float;
  mutable attempts : int;
  mutable sent_at : float;
}

type state = {
  cfg : config;
  mutable put : int -> Lwe.sample -> unit;  (* result writeback, per run *)
  members : worker array;
  obs : Trace.sink;
  wtracks : int array;  (* coordinator-side track id per worker index *)
  mutable next_req : int;
  (* counters *)
  mutable requests_sent : int;
  mutable retries : int;
  mutable reassignments : int;
  mutable corrupt_frames : int;
  mutable heartbeat_misses : int;
  mutable lost : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable t_dispatch : float;
  mutable t_transfer : float;
  mutable t_compute : float;
}

let live_workers st = Array.to_list st.members |> List.filter (fun w -> w.alive)

let reap w =
  if not w.reaped then begin
    (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
    w.reaped <- true
  end

let kill_worker w =
  if w.alive then begin
    w.alive <- false;
    (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try Unix.close w.fd with Unix.Unix_error _ -> ());
    reap w
  end

(* waitpid(WNOHANG) heartbeat: true iff the process is still running. *)
let process_running w =
  if not w.alive || w.reaped then false
  else
    match Unix.waitpid [ Unix.WNOHANG ] w.pid with
    | 0, _ -> true
    | _ -> w.reaped <- true; false
    | exception Unix.Unix_error _ -> w.reaped <- true; false

let worker_env_var = "PYTFHE_DIST_WORKER"

(* Host executables call this before anything else in main.  In a spawned
   worker it serves the gate protocol on the stdin socket and exits; in
   every other process it is a no-op. *)
let worker_entry () =
  match Sys.getenv_opt worker_env_var with
  | Some "1" ->
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* All exits go through Unix._exit: a worker must never run the host
       program's at_exit handlers or flush inherited stdio buffers. *)
    (try worker_main Unix.stdin with
    | Frame_closed -> Unix._exit 0 (* coordinator hung up: normal shutdown *)
    | _ -> Unix._exit 2)
  | Some _ | None -> ()

(* Re-exec the host binary with the worker marker set; the worker side of
   the socketpair becomes the child's stdin (sockets are bidirectional, so
   it carries replies too).  Stdout maps to our stderr so a stray print in
   the child can never corrupt the protocol stream.  The coordinator side
   is close-on-exec, so later spawns don't inherit it and EOF detection on
   a dead worker's socket stays crisp. *)
let spawn_worker ~index =
  let coord_fd, worker_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec coord_fd;
  let env = Array.append (Unix.environment ()) [| worker_env_var ^ "=1" |] in
  let exe = Sys.executable_name in
  let pid = Unix.create_process_env exe [| exe |] env worker_fd Unix.stderr Unix.stderr in
  Unix.close worker_fd;
  { w_index = index; pid; fd = coord_fd; alive = true; reaped = false }

let hello_bytes ~index ~transform ~obs ~faults ~keyset_blob =
  let buf = Buffer.create (String.length keyset_blob + 256) in
  Wire.write_magic buf "DHEL";
  Wire.write_i64 buf index;
  Wire.write_u8 buf (Pytfhe_fft.Transform.kind_code transform);
  Wire.write_bool buf (Trace.enabled obs);
  Wire.write_f64 buf (Trace.epoch obs);
  Wire.write_array buf write_fault (Array.of_list faults);
  Buffer.add_string buf keyset_blob;
  Buffer.to_bytes buf

(* Serialize and send one shard request; accounts dispatch time/bytes. *)
let send_shard st sh =
  let w = sh.owner in
  let t0 = Unix.gettimeofday () in
  st.next_req <- st.next_req + 1;
  sh.req_id <- st.next_req;
  let buf = Buffer.create (String.length sh.body + 16) in
  Wire.write_magic buf "DRQ2";
  Wire.write_i64 buf sh.req_id;
  Buffer.add_string buf sh.body;
  let n = write_frame w.fd (Buffer.to_bytes buf) in
  let now = Unix.gettimeofday () in
  st.bytes_out <- st.bytes_out + n;
  st.t_dispatch <- st.t_dispatch +. (now -. t0);
  st.requests_sent <- st.requests_sent + 1;
  sh.sent_at <- now;
  sh.deadline <- now +. st.cfg.request_timeout

exception All_workers_lost

(* The shard's owner is gone: push the work onto the least-loaded
   survivor.  Raises All_workers_lost when nobody is left. *)
let rec reassign st pending sh =
  let load w = List.length (List.filter (fun q -> q.owner == w) !pending) in
  match live_workers st with
  | [] -> raise All_workers_lost
  | w0 :: rest ->
    let target =
      List.fold_left (fun best w -> if load w < load best then w else best) w0 rest
    in
    sh.owner <- target;
    sh.attempts <- 0;
    st.reassignments <- st.reassignments + 1;
    (try send_shard st sh
     with Frame_closed ->
       st.lost <- st.lost + 1;
       kill_worker target;
       (* the pool shrank under us: try the next survivor *)
       reassign st pending sh)

let declare_lost st pending w =
  if w.alive then begin
    st.lost <- st.lost + 1;
    kill_worker w
  end;
  let orphans = List.filter (fun q -> q.owner == w) !pending in
  List.iter (fun sh -> reassign st pending sh) orphans

(* Deadline expiry: a dead owner is replaced immediately; a live owner is
   granted [max_retries] backoff extensions (it may merely be slow) before
   being declared lost. *)
let on_timeout st pending sh =
  let w = sh.owner in
  if not (process_running w) then declare_lost st pending w
  else if sh.attempts < st.cfg.max_retries then begin
    sh.attempts <- sh.attempts + 1;
    st.retries <- st.retries + 1;
    sh.deadline <-
      Unix.gettimeofday () +. (st.cfg.request_timeout *. (st.cfg.backoff ** float_of_int sh.attempts))
  end
  else declare_lost st pending w

(* A reply arrived on [w.fd].  Parse defensively: any Wire.Corrupt /
   truncation / arity mismatch re-requests the shard instead of poisoning
   the value table. *)
let on_ready st pending w =
  let resend_corrupt sh =
    st.corrupt_frames <- st.corrupt_frames + 1;
    if sh.attempts < st.cfg.max_retries then begin
      sh.attempts <- sh.attempts + 1;
      st.retries <- st.retries + 1;
      try send_shard st sh
      with Frame_closed -> declare_lost st pending w
    end
    else declare_lost st pending w
  in
  (* One frame per call: a DTRC (optional worker trace, sent before its
     DRP2) is merged and the select loop comes back for the reply still
     buffered on the socket. *)
  let parse_trc payload =
    match
      let r = Wire.reader_of_string payload in
      Wire.read_magic r "DTRC";
      let _req_id = Wire.read_i64 r in
      Wire.read_array r Trace.read_event
    with
    | events ->
      Trace.inject st.obs ~track:st.wtracks.(w.w_index) (Array.to_list events)
    | exception Wire.Corrupt _ ->
      (* a mangled trace frame costs events, never the run *)
      st.corrupt_frames <- st.corrupt_frames + 1
  in
  match
    let deadline = Unix.gettimeofday () +. st.cfg.request_timeout in
    let payload = read_frame ~deadline w.fd in
    st.bytes_in <- st.bytes_in + String.length payload + 12;
    if String.length payload >= 4 && String.sub payload 0 4 = "DTRC" then begin
      parse_trc payload;
      None
    end
    else begin
      let r = Wire.reader_of_string payload in
      Wire.read_magic r "DRP2";
      let req_id = Wire.read_i64 r in
      let compute = Wire.read_f64 r in
      Some (req_id, compute, Lwe_array.to_samples (Lwe_array.read r))
    end
  with
  | exception Frame_closed -> declare_lost st pending w
  | exception Frame_timeout -> declare_lost st pending w
  | exception Wire.Corrupt _ ->
    (match List.find_opt (fun q -> q.owner == w) !pending with
    | Some sh -> resend_corrupt sh
    | None -> declare_lost st pending w)
  | None -> ()
  | Some (req_id, compute, samples) -> (
    match List.find_opt (fun q -> q.owner == w && q.req_id = req_id) !pending with
    | None -> () (* stale reply from a superseded request: drop *)
    | Some sh ->
      if Array.length samples <> Array.length sh.dsts then resend_corrupt sh
      else begin
        Array.iteri (fun i dst -> st.put dst samples.(i)) sh.dsts;
        let now = Unix.gettimeofday () in
        st.t_compute <- st.t_compute +. compute;
        st.t_transfer <- st.t_transfer +. Float.max 0.0 (now -. sh.sent_at -. compute);
        pending := List.filter (fun q -> q != sh) !pending
      end)

(* Cut one wave's rotation units into [k] contiguous shards and serialize
   each: a unit is one gate, one arity-1 cell or one multi-input group with
   all its tables, so a group is never split across shards. *)
let shards_of ~n tasks gates cells k =
  let g = Array.length gates in
  let units = g + Array.length cells in
  let k = max 1 (min k units) in
  Array.init k (fun d ->
      let lo = d * units / k and hi = (d + 1) * units / k in
      let gs = Array.sub gates (min lo g) (min hi g - min lo g) in
      let cs = Array.sub cells (max lo g - g) (max hi g - max lo g) in
      let buf = Buffer.create 4096 in
      write_shard buf ~n tasks gs cs;
      let dsts =
        gs
        :: List.map
             (function
               | Stream_exec.C_sign { idx; _ } -> [| idx |]
               | Stream_exec.C_group c -> Array.of_list (List.rev c.idxs))
             (Array.to_list cs)
      in
      (Buffer.contents buf, Array.concat dsts))

(* Fan one wave out over the live workers ([cut] shards it for the live
   count) and run the select loop until every shard has been answered
   (results land through [st.put]). *)
let dispatch st cut =
  let live = live_workers st in
  if live = [] then raise All_workers_lost;
  let owners = Array.of_list live in
  let pending = ref [] in
  Array.iteri
    (fun d (body, dsts) ->
      let sh =
        { body; dsts; owner = owners.(d); req_id = 0; deadline = infinity; attempts = 0;
          sent_at = 0.0 }
      in
      pending := sh :: !pending)
    (cut (Array.length owners));
  (* Initial sends, tolerating workers that died since the last wave.
     declare_lost may already have re-sent a shard through reassignment,
     so only shards still carrying req_id = 0 go out here. *)
  List.iter
    (fun sh ->
      if sh.req_id = 0 then
        try send_shard st sh
        with Frame_closed -> declare_lost st pending sh.owner)
    !pending;
  while !pending <> [] do
    let now = Unix.gettimeofday () in
    List.iter (fun sh -> if now >= sh.deadline then on_timeout st pending sh) !pending;
    if !pending <> [] then begin
      let fds =
        List.sort_uniq compare (List.map (fun sh -> sh.owner.fd) !pending)
      in
      let next_deadline =
        List.fold_left (fun acc sh -> Float.min acc sh.deadline) infinity !pending
      in
      let tmo =
        Float.max 0.005
          (Float.min st.cfg.heartbeat_interval (next_deadline -. Unix.gettimeofday ()))
      in
      match Unix.select fds [] [] tmo with
      | [], _, _ ->
        (* heartbeat: catch crashed workers early, before their deadline *)
        List.iter
          (fun sh ->
            if sh.owner.alive && not (process_running sh.owner) then begin
              st.heartbeat_misses <- st.heartbeat_misses + 1;
              declare_lost st pending sh.owner
            end)
          !pending
      | ready, _, _ ->
        List.iter
          (fun fd ->
            match List.find_opt (fun sh -> sh.owner.fd = fd && sh.owner.alive) !pending with
            | Some sh -> on_ready st pending sh.owner
            | None -> ())
          ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
        (* a descriptor died under select: sweep for dead owners *)
        List.iter
          (fun sh ->
            if sh.owner.alive && not (process_running sh.owner) then begin
              st.heartbeat_misses <- st.heartbeat_misses + 1;
              declare_lost st pending sh.owner
            end)
          !pending
    end
  done


let shutdown members =
  Array.iter
    (fun w ->
      if w.alive then begin
        let bye = Buffer.create 8 in
        Wire.write_magic bye "DBYE";
        (try ignore (write_frame w.fd (Buffer.to_bytes bye)) with _ -> ());
        (try Unix.close w.fd with Unix.Unix_error _ -> ());
        w.alive <- false;
        (* DBYE exits promptly; SIGKILL covers a worker wedged in a fault *)
        (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap w
      end
      else reap w)
    members

(* A live worker pool plus its dispatch state: the startup half of a run
   (sigpipe, transform tables, spawn, hello, DRDY barrier). *)
type session = {
  s_cloud : Gates.cloud_keyset;
  s_st : state;
  s_members : worker array;
  s_keyset_bytes : int;
  s_started : float;  (* wall clock when the session began *)
  s_startup : float;  (* seconds to bring the pool up *)
  s_restore : unit -> unit;
}

let session_start ?(obs = Trace.null) cfg cloud =
  let start = Unix.gettimeofday () in
  let previous_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
  in
  let restore_sigpipe () =
    match previous_sigpipe with
    | Some h -> ( try Sys.set_signal Sys.sigpipe h with Invalid_argument _ -> ())
    | None -> ()
  in
  (* Coordinator-side transform tables, built before any worker process is
     spawned: the coordinator itself only reads/writes ciphertexts, but
     [Gates.constant] and the tests touch the evaluation pipeline, and the
     precompute must not race anything. *)
  Params.precompute cloud.Gates.cloud_params;
  (* Ship the keyset once: serialize it up front, reuse the blob per worker. *)
  let keyset_blob =
    let buf = Buffer.create (1 lsl 20) in
    Gates.write_cloud_keyset buf cloud;
    Buffer.contents buf
  in
  let members = Array.init cfg.workers (fun i -> spawn_worker ~index:i) in
  let wtracks =
    Array.init cfg.workers (fun i ->
        Trace.external_track obs ~name:(Printf.sprintf "worker %d" i))
  in
  let st =
    {
      cfg;
      put = (fun _ _ -> ());
      members;
      obs;
      wtracks;
      next_req = 0;
      requests_sent = 0;
      retries = 0;
      reassignments = 0;
      corrupt_frames = 0;
      heartbeat_misses = 0;
      lost = 0;
      bytes_out = 0;
      bytes_in = 0;
      t_dispatch = 0.0;
      t_transfer = 0.0;
      t_compute = 0.0;
    }
  in
  (try
     (* hello: worker identity + fault schedule + the cloud keyset *)
     Array.iter
       (fun w ->
         let faults = List.filter (fun f -> f.victim = w.w_index) cfg.faults in
         let hello =
           hello_bytes ~index:w.w_index
             ~transform:cloud.Gates.cloud_params.Params.transform ~obs ~faults ~keyset_blob
         in
         try
           let n = write_frame w.fd hello in
           st.bytes_out <- st.bytes_out + n
         with Frame_closed ->
           st.lost <- st.lost + 1;
           kill_worker w)
       members;
     (* DRDY barrier: every worker parses the keyset (in parallel) and
        acknowledges.  A spawned binary that is not actually a worker —
        the host forgot to call [worker_entry] — answers with garbage or
        silence and is culled here, before any gate is risked on it. *)
     let ready_deadline = Unix.gettimeofday () +. Float.max 60.0 cfg.request_timeout in
     Array.iter
       (fun w ->
         if w.alive then
         match read_frame ~deadline:ready_deadline w.fd with
         | payload when String.length payload >= 4 && String.sub payload 0 4 = "DRDY" ->
           st.bytes_in <- st.bytes_in + String.length payload + 12
         | _ | (exception Frame_closed) | (exception Frame_timeout)
         | (exception Wire.Corrupt _) ->
           st.lost <- st.lost + 1;
           kill_worker w)
       members;
     if live_workers st = [] then
       failwith
         "Dist_eval.run_stream: no worker came up — does the host executable call \
          Dist_eval.worker_entry at the start of main?"
   with exn ->
     shutdown members;
     restore_sigpipe ();
     raise exn);
  {
    s_cloud = cloud;
    s_st = st;
    s_members = members;
    s_keyset_bytes = String.length keyset_blob;
    s_started = start;
    s_startup = Unix.gettimeofday () -. start;
    s_restore = restore_sigpipe;
  }

let session_shutdown s =
  shutdown s.s_members;
  s.s_restore ()

(* Each wave splits into its rotation units, which ship with their
   operands already resolved, so workers stay program-free.  Fault
   tolerance (deadlines, retries, reassignment, heartbeats) is the
   [dispatch] loop above. *)
let run_stream ?(opts = Exec_opts.default) ?window cfg cloud read inputs =
  Exec_opts.check_scalar_only ~who:"Dist_eval.run_stream" opts;
  let obs = opts.Exec_opts.obs in
  let session = session_start ~obs cfg cloud in
  let st = session.s_st in
  Fun.protect
    ~finally:(fun () -> session_shutdown session)
    (fun () ->
      let n = cloud.Gates.cloud_params.Params.lwe.Params.n in
      let run_wave tasks =
        let gates, cells = Stream_exec.split_wave tasks in
        let out = Array.make (Array.length tasks) None in
        st.put <- (fun i v -> out.(i) <- Some v);
        let out0 = st.bytes_out and in0 = st.bytes_in in
        let retries0 = st.retries and reassign0 = st.reassignments in
        let corrupt0 = st.corrupt_frames and hb0 = st.heartbeat_misses in
        dispatch st (shards_of ~n tasks gates cells);
        {
          Stream_exec.results = Array.map Option.get out;
          rotations = Array.length gates + Array.length cells;
          counters =
            [
              ("bytes_to_workers", st.bytes_out - out0);
              ("bytes_from_workers", st.bytes_in - in0);
              ("retries", st.retries - retries0);
              ("reassignments", st.reassignments - reassign0);
              ("corrupt_frames", st.corrupt_frames - corrupt0);
              ("heartbeat_misses", st.heartbeat_misses - hb0);
            ];
        }
      in
      (* bootstraps/key_switches/ffts come from the worker-side shard
         counters (shipped in DTRC frames), which count where the gates
         actually ran — a retried shard is re-counted by whichever worker
         redid it. *)
      let probe =
        {
          Stream_exec.track = "coordinator";
          params = cloud.Gates.cloud_params;
          remote_crypto = true;
          batch = None;
        }
      in
      let outputs, ws =
        try Stream_exec.run_waves ~obs ?window probe ~run_wave read inputs
        with All_workers_lost ->
          failwith "Dist_eval.run_stream: all workers lost (crashed or unresponsive)"
      in
      ( outputs,
        {
          workers_started = cfg.workers;
          workers_lost = st.lost;
          bootstraps_executed = ws.Stream_exec.bootstraps_run;
          nots_executed = ws.Stream_exec.nots_run;
          requests_sent = st.requests_sent;
          retries = st.retries;
          reassignments = st.reassignments;
          corrupt_frames = st.corrupt_frames;
          heartbeat_misses = st.heartbeat_misses;
          keyset_bytes = session.s_keyset_bytes;
          bytes_to_workers = st.bytes_out;
          bytes_from_workers = st.bytes_in;
          startup_time = session.s_startup;
          dispatch_time = st.t_dispatch;
          transfer_time = st.t_transfer;
          compute_time = st.t_compute;
          wave_wall = ws.Stream_exec.wave_wall;
          wave_width = ws.Stream_exec.wave_widths;
          wall_time = Unix.gettimeofday () -. session.s_started;
        } ))

let pp_stats fmt s =
  Format.fprintf fmt
    "workers=%d (%d lost) bootstraps=%d nots=%d requests=%d retries=%d reassignments=%d \
     corrupt=%d hb-misses=%d wall=%.3fs dispatch=%.3fs transfer=%.3fs compute=%.3fs \
     sent=%dB recv=%dB"
    s.workers_started s.workers_lost s.bootstraps_executed s.nots_executed s.requests_sent
    s.retries s.reassignments s.corrupt_frames s.heartbeat_misses s.wall_time
    s.dispatch_time s.transfer_time s.compute_time s.bytes_to_workers s.bytes_from_workers

(* Real multicore evaluation of TFHE programs on OCaml 5 domains.

   The wave driver (Stream_exec.run_waves) cuts the instruction stream into
   waves (the paper's Algorithm 1); a wave's bootstrapped tasks have all
   their operands in earlier waves, so they execute concurrently with
   static chunking across a fork-join domain pool.  Each domain owns a
   private Gates.context (TGSW workspace, FFT scratch, test-vector buffer);
   the only shared mutable state is the wave's result array, and every
   domain writes a disjoint slice of it, with the pool's mutex handshake
   providing the inter-wave happens-before edge.

   The executor is bit-exact with the sequential one: each gate performs
   the identical float/torus operation sequence, only on a different
   domain. *)

module Levelize = Pytfhe_circuit.Levelize
module Trace = Pytfhe_obs.Trace
open Pytfhe_tfhe

type stats = {
  workers : int;
  bootstraps_executed : int;
  nots_executed : int;
  per_domain_bootstraps : int array;
  per_domain_busy : float array;
  wave_wall : float array;
  wave_width : int array;
  wall_time : float;
  achieved_speedup : float;
  ideal_speedup : float;
  batch_size : int;
  batch_launches : int;
  bsk_bytes_streamed : int;
  ks_bytes_streamed : int;
}

(* ------------------------------------------------------------------ *)
(* Fork-join domain pool                                               *)
(* ------------------------------------------------------------------ *)

type pool = {
  helpers : int;  (* worker domains beyond the calling one *)
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : (int -> unit) option;
  mutable epoch : int;
  mutable remaining : int;
  mutable stop : bool;
  mutable failure : exn option;
  mutable domains : unit Domain.t array;
}

let pool_worker pool index =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while (not pool.stop) && pool.epoch = !seen do
      Condition.wait pool.work_ready pool.mutex
    done;
    if pool.stop then begin
      Mutex.unlock pool.mutex;
      running := false
    end
    else begin
      seen := pool.epoch;
      let job = Option.get pool.job in
      Mutex.unlock pool.mutex;
      let outcome = try job index; None with exn -> Some exn in
      Mutex.lock pool.mutex;
      (match outcome with
      | Some _ when pool.failure = None -> pool.failure <- outcome
      | Some _ | None -> ());
      pool.remaining <- pool.remaining - 1;
      if pool.remaining = 0 then Condition.broadcast pool.work_done;
      Mutex.unlock pool.mutex
    end
  done

let pool_create helpers =
  let pool =
    {
      helpers;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      epoch = 0;
      remaining = 0;
      stop = false;
      failure = None;
      domains = [||];
    }
  in
  pool.domains <- Array.init helpers (fun i -> Domain.spawn (fun () -> pool_worker pool (i + 1)));
  pool

(* Run [job d] for every worker index d in [0, helpers]; index 0 executes on
   the calling domain.  Returns once all indices finish; re-raises the first
   failure after the barrier so the pool stays consistent. *)
let pool_run pool job =
  if pool.helpers = 0 then job 0
  else begin
    Mutex.lock pool.mutex;
    pool.job <- Some job;
    pool.epoch <- pool.epoch + 1;
    pool.remaining <- pool.helpers;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex;
    let mine = try job 0; None with exn -> Some exn in
    Mutex.lock pool.mutex;
    while pool.remaining > 0 do
      Condition.wait pool.work_done pool.mutex
    done;
    let helper_failure = pool.failure in
    pool.failure <- None;
    pool.job <- None;
    Mutex.unlock pool.mutex;
    match (mine, helper_failure) with
    | Some exn, _ | None, Some exn -> raise exn
    | None, None -> ()
  end

let pool_shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mutex;
  Array.iter Domain.join pool.domains

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)
(* ------------------------------------------------------------------ *)

(* Wave-synchronous upper bound on speedup: with unit task cost, [workers]
   domains need ceil(width / workers) rounds per wave. *)
let ideal_of_widths widths workers =
  let rounds =
    Array.fold_left
      (fun acc w -> if w > 0 then acc + ((w + workers - 1) / workers) else acc)
      0 widths
  in
  if rounds = 0 then 1.0
  else float_of_int (Array.fold_left ( + ) 0 widths) /. float_of_int rounds

let ideal_speedup (sched : Levelize.schedule) workers =
  ideal_of_widths sched.Levelize.widths workers

(* Each wave's resolved-operand tasks fan out over the domain pool: classic
   gates statically chunked, LUT rotation units distributed whole so each
   group's indicator rotation happens exactly once, on one domain.  A
   domain runs its share scalar through its private context, or in
   sub-batches through its private batch context.  The per-gate operation
   sequence matches the sequential runner, so outputs are
   ciphertext-bit-exact with it for any worker count and any window. *)
let run_stream ?workers ?(opts = Exec_opts.default) ?window cloud read inputs =
  let workers =
    match workers with Some w -> w | None -> Domain.recommended_domain_count ()
  in
  if workers < 1 then invalid_arg "Par_eval.run_stream: workers must be >= 1";
  let batch = opts.Exec_opts.batch in
  (match batch with
  | Some b when b < 1 -> invalid_arg "Par_eval.run_stream: batch must be >= 1"
  | Some _ | None -> ());
  (* Transform tables (FFT twiddles or NTT residue tables) are built once
     here, before any worker domain exists: the caches are atomic
     snapshot/CAS lists, so a helper domain racing a first build would
     duplicate work and churn the cache mid-wave. *)
  Params.precompute cloud.Gates.cloud_params;
  let start = Unix.gettimeofday () in
  let obs = opts.Exec_opts.obs in
  let p = cloud.Gates.cloud_params in
  let lwe_n = p.Params.lwe.Params.n in
  (* One private context per domain: contexts.(0) belongs to the caller.
     Scalar contexts are only needed on the per-gate path, batch contexts
     only on the batched one. *)
  let contexts =
    match batch with
    | None -> Array.init workers (fun _ -> Gates.context cloud)
    | Some _ -> [||]
  in
  let batch_ctxs =
    match batch with
    | None -> [||]
    | Some b -> Array.init workers (fun _ -> Gates.batch_context cloud ~cap:b)
  in
  (* Only read at pool barriers, where the mutex handshake makes the helper
     domains' counter updates visible. *)
  let batch_totals () =
    Array.fold_left
      (fun acc bc ->
        let c = Gates.batch_counters bc in
        {
          Gates.batch_launches = acc.Gates.batch_launches + c.Gates.batch_launches;
          batch_gates = acc.Gates.batch_gates + c.Gates.batch_gates;
          bsk_rows = acc.Gates.bsk_rows + c.Gates.bsk_rows;
          ks_blocks = acc.Gates.ks_blocks + c.Gates.ks_blocks;
        })
      { Gates.batch_launches = 0; batch_gates = 0; bsk_rows = 0; ks_blocks = 0 }
      batch_ctxs
  in
  let per_domain_bootstraps = Array.make workers 0 in
  let per_domain_busy = Array.make workers 0.0 in
  let traced = Trace.enabled obs in
  let ep = Trace.epoch obs in
  let dom_tracks =
    Array.init workers (fun d -> Trace.new_track obs ~name:(Printf.sprintf "domain %d" d))
  in
  let pool = pool_create (workers - 1) in
  let wave = ref 0 in
  (* Static chunking: domain d owns the contiguous slice [lo, hi) of [len]
     units and records its busy time, rotation count and (traced) one chunk
     span on its own lock-free track. *)
  let fan_out ~what len work =
    if len > 0 then
      pool_run pool (fun d ->
          let lo = d * len / workers and hi = (d + 1) * len / workers in
          if lo < hi then begin
            let t0 = Unix.gettimeofday () in
            work d lo (hi - lo);
            let t1 = Unix.gettimeofday () in
            per_domain_bootstraps.(d) <- per_domain_bootstraps.(d) + (hi - lo);
            per_domain_busy.(d) <- per_domain_busy.(d) +. (t1 -. t0);
            if traced then
              Trace.span dom_tracks.(d) ~cat:"chunk"
                ~name:(Printf.sprintf "wave %d %s[%d,%d)" !wave what lo hi)
                ~t0:(t0 -. ep) ~t1:(t1 -. ep)
          end)
  in
  let run_wave tasks =
    let gates, cells = Stream_exec.split_wave tasks in
    let out = Array.make (Array.length tasks) None in
    fan_out ~what:"" (Array.length gates) (fun d lo len ->
        let mine = Array.sub gates lo len in
        match batch with
        | None -> Stream_exec.run_gates contexts.(d) tasks mine out
        | Some b -> Stream_exec.run_gates_batched batch_ctxs.(d) ~batch:b ~n:lwe_n tasks mine out);
    fan_out ~what:"luts " (Array.length cells) (fun d lo len ->
        let mine = Array.sub cells lo len in
        match batch with
        | None -> Stream_exec.run_cells contexts.(d) mine out
        | Some b -> Stream_exec.run_cells_batched batch_ctxs.(d) ~batch:b ~n:lwe_n mine out);
    incr wave;
    {
      Stream_exec.results = Array.map (function Some v -> v | None -> assert false) out;
      rotations = Array.length gates + Array.length cells;
      counters = [];
    }
  in
  let probe =
    {
      Stream_exec.track = "waves";
      params = p;
      remote_crypto = false;
      batch = Option.map (fun b -> (b, batch_totals)) batch;
    }
  in
  let outputs, ws =
    Fun.protect
      ~finally:(fun () -> pool_shutdown pool)
      (fun () -> Stream_exec.run_waves ~obs ?window probe ~run_wave read inputs)
  in
  let wall_time = Unix.gettimeofday () -. start in
  let busy = Array.fold_left ( +. ) 0.0 per_domain_busy in
  let c = batch_totals () in
  ( outputs,
    {
      workers;
      bootstraps_executed = ws.Stream_exec.bootstraps_run;
      nots_executed = ws.Stream_exec.nots_run;
      per_domain_bootstraps;
      per_domain_busy;
      wave_wall = ws.Stream_exec.wave_wall;
      wave_width = ws.Stream_exec.wave_widths;
      wall_time;
      achieved_speedup = (if wall_time > 0.0 then busy /. wall_time else 0.0);
      ideal_speedup = ideal_of_widths ws.Stream_exec.wave_widths workers;
      batch_size = (match batch with Some b -> b | None -> 0);
      batch_launches = c.Gates.batch_launches;
      bsk_bytes_streamed = c.Gates.bsk_rows * Exec_obs.bsk_row_bytes p;
      ks_bytes_streamed = c.Gates.ks_blocks * Exec_obs.ks_block_bytes p;
    } )

let pp_stats fmt s =
  Format.fprintf fmt
    "workers=%d bootstraps=%d nots=%d wall=%.3fs speedup=%.2fx (wave-sync ideal %.2fx)@ per-domain bootstraps: %a"
    s.workers s.bootstraps_executed s.nots_executed s.wall_time s.achieved_speedup
    s.ideal_speedup
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") Format.pp_print_int)
    (Array.to_list s.per_domain_bootstraps)

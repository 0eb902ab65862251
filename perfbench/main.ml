(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Four workloads, each stressing different layers (BENCHMARK.json gives
   the one-line reasons):

   - compile-paper: paper-shape MNIST (mnist_s) through the three compile
     paths, one thread, no cryptography;
   - vip128-par: a seeded draw over a sized-down VIP-Bench Hamming kernel
     at default_128 parameters on two domains;
   - psi-ntt-dist: a sized-down LUT-covered private-set-intersection
     kernel at test parameters on the NTT, two worker processes;
   - svc-2tenant: the persistent service with two tenants in closed-loop
     rounds of requests.

   Every workload reports the same end-to-end metrics, each with one
   meaning everywhere:

   - setup_s: median of repeated set-ups over at least four seconds
     (keys, transform tables, backend start), everything before the first
     timed pass;
   - pass_s: median wall time of one timed pass, repeated for --seconds
     (at least three passes, two on compile-paper), after an untimed
     warm-up pass;
   - program_bootstraps: bootstraps in the compiled programs, from the
     compiler's statistics, never from an executor;
   - compile_peak_heap_mb: peak major heap once the programs are first
     compiled, which happens before anything else in the process.

   Every output is checked against a plaintext reference that does not
   come from the compiler: the kernel's own arithmetic, or Plain_eval of
   the uncompiled netlist.

   With --trace 1 the flow runs untraced first, then again with spans
   recorded around each call into a layer's public functions, then the
   per-layer micro measurements.  That run prints the per-layer table and
   metrics, writes the spans to perfbench_out/, and reports the tracing
   overhead and the reconciliation residuals.  Executor layers a workload
   does not drive itself (par, dist, service) are measured on a fixed
   probe: the 5-bit Hamming kernel at test parameters.

   The last line of standard output is one JSON object.  A wrong output
   prints it with "correct": false and exits 1; any other error exits 2
   without printing it. *)

open Pytfhe_core
module Netlist = Pytfhe_circuit.Netlist
module Gate = Pytfhe_circuit.Gate
module Binary = Pytfhe_circuit.Binary
module Levelize = Pytfhe_circuit.Levelize
module Circuit_stats = Pytfhe_circuit.Stats
module Opt = Pytfhe_synth.Opt
module Params = Pytfhe_tfhe.Params
module Gates = Pytfhe_tfhe.Gates
module Lwe = Pytfhe_tfhe.Lwe
module Lwe_array = Pytfhe_tfhe.Lwe_array
module Tlwe = Pytfhe_tfhe.Tlwe
module Tgsw = Pytfhe_tfhe.Tgsw
module Poly = Pytfhe_tfhe.Poly
module Bootstrap = Pytfhe_tfhe.Bootstrap
module Keyswitch = Pytfhe_tfhe.Keyswitch
module Transform = Pytfhe_fft.Transform
module Negacyclic = Pytfhe_fft.Negacyclic
module Ntt = Pytfhe_fft.Ntt
module Executor = Pytfhe_backend.Executor
module Plain_eval = Pytfhe_backend.Plain_eval
module Stream_exec = Pytfhe_backend.Stream_exec
module Dist_eval = Pytfhe_backend.Dist_eval
module Par_eval = Pytfhe_backend.Par_eval
module Service = Pytfhe_service.Service
module Service_client = Pytfhe_service.Service_client
module Rng = Pytfhe_util.Rng
module Json = Pytfhe_util.Json
module Bus = Pytfhe_hdl.Bus
module Arith = Pytfhe_hdl.Arith
module Kernels = Pytfhe_vipbench.Kernels
module Networks = Pytfhe_vipbench.Networks
module Suite = Pytfhe_vipbench.Suite
module Nn = Pytfhe_chiseltorch.Nn
module Tensor = Pytfhe_chiseltorch.Tensor
module Sampling = Perfbench_lib.Sampling
module Spans = Perfbench_lib.Spans

let now = Unix.gettimeofday
let span = Spans.with_span
let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0
let mb_of_bytes b = float_of_int b /. 1048576.0

(* Settings from the command line. *)
let seed = ref 1
let seconds = ref 10.0
let trace = ref false

(* Every seed the run uses (keygen, inputs) derives from --seed and a tag. *)
let derive tag = Hashtbl.hash (!seed, tag)

(* ------------------------------------------------------------------ *)
(* Metrics and correctness accounting                                  *)
(* ------------------------------------------------------------------ *)

let metrics : (string, float * string) Hashtbl.t = Hashtbl.create 64
let put name unit v = Hashtbl.replace metrics name (v, unit)
let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.printf "WRONG OUTPUT: %s\n%!" what
  end

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Run [f] until [budget] seconds have passed and at least [min] times. *)
let repeat ~min ~budget f =
  let t0 = now () in
  let out = ref [] and n = ref 0 in
  while !n < min || now () -. t0 < budget do
    out := f !n :: !out;
    incr n
  done;
  Array.of_list (List.rev !out)

let print_passes walls =
  Printf.printf "%d timed passes (s):%s\n%!" (Array.length walls)
    (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %.4f") walls)))

(* Median per-call time of [f], timed one call at a time inside a span
   named [name] so the traced run's table shows it too. *)
let per_call ~name ~min ~budget f =
  Sampling.median (repeat ~min ~budget (fun _ -> snd (timed (fun () -> span name f))))

(* ------------------------------------------------------------------ *)
(* Bits and references                                                 *)
(* ------------------------------------------------------------------ *)

let bits_of_int ~width v = Array.init width (fun i -> (v lsr i) land 1 = 1)

let int_of_bits bits =
  Array.fold_right (fun b acc -> (acc lsl 1) lor Bool.to_int b) bits 0

let popcount v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
  go v 0

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

(* A workload program: the netlist builder (the frontend), how its input
   bits are drawn, and its plaintext reference on those bits. *)
type program = {
  pname : string;
  circuit : unit -> Netlist.t;
  draw : Rng.t -> bool array;
  reference : bool array -> int;
      (** The expected outputs read as an integer, LSB first. *)
}

(* VIP-Bench hamming_distance (popcount of an XOR) over 5-bit vectors
   instead of 32: at default_128 each bootstrap costs about a quarter of
   a second, and the 32-bit kernel's 224 bootstraps would take ~30 s per
   pass on two domains. *)
let hamming_bits = 5

let hamming =
  let n = hamming_bits in
  {
    pname = "hamming5";
    circuit =
      (fun () ->
        let net = Netlist.create () in
        let a = Bus.input net "a" n in
        let b = Bus.input net "b" n in
        Bus.output net "dist" (Kernels.popcount net (Bus.bxor net a b));
        net);
    draw = (fun rng -> Array.init (2 * n) (fun _ -> Rng.bool rng));
    reference =
      (fun bits ->
        let a = int_of_bits (Array.sub bits 0 n) and b = int_of_bits (Array.sub bits n n) in
        popcount (a lxor b));
  }

(* VIP-Bench psi (how many of the client's items occur in the server's
   set) with 3 items a side instead of 8, so one pass stays at a few
   seconds on the NTT.  Items are drawn from a range twice the set size,
   so about half of them match. *)
let psi_items = 3
let psi_width = 8

let psi =
  let n = psi_items and w = psi_width in
  {
    pname = "psi3";
    circuit =
      (fun () ->
        let net = Netlist.create () in
        let xs = Array.init n (fun i -> Bus.input net (Printf.sprintf "a%d" i) w) in
        let ys = Array.init n (fun i -> Bus.input net (Printf.sprintf "b%d" i) w) in
        let hits =
          Array.map (fun x -> Bus.reduce_or net (Array.map (fun y -> Arith.eq net x y) ys)) xs
        in
        Bus.output net "count" (Kernels.popcount net hits);
        net);
    draw =
      (fun rng ->
        Array.concat (List.init (2 * n) (fun _ -> bits_of_int ~width:w (Rng.int rng (2 * n)))));
    reference =
      (fun bits ->
        let item i = int_of_bits (Array.sub bits (i * w) w) in
        let xs = List.init n item and ys = List.init n (fun i -> item (n + i)) in
        let count = List.length (List.filter (fun x -> List.mem x ys) xs) in
        count);
  }

(* A serial XOR chain exposes one ready gate per wave, so packing its
   gates into batch launches is only possible across requests. *)
let chain_depth = 6

let chain =
  {
    pname = "xor-chain";
    circuit =
      (fun () ->
        let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
        let a = Netlist.input net "a" in
        let b = Netlist.input net "b" in
        let rec go x k = if k = 0 then x else go (Netlist.gate net Gate.Xor x b) (k - 1) in
        Netlist.mark_output net "o" (go a chain_depth);
        net);
    draw = (fun rng -> [| Rng.bool rng; Rng.bool rng |]);
    reference = (fun bits -> Bool.to_int (if chain_depth mod 2 = 1 then bits.(0) <> bits.(1) else bits.(0)));
  }

(* How a workload compiles its programs. *)
type mode = Optimize | Lut_cover | Unoptimized

let compile_one mode prog net =
  match mode with
  | Optimize -> Pipeline.compile ~name:prog.pname net
  | Lut_cover -> Pipeline.compile ~lut_cover:true ~name:prog.pname net
  | Unoptimized -> Pipeline.compile ~optimize:false ~name:prog.pname net

(* Compile an execution workload's programs, frontend included.  This
   runs first in the process, after a full collection that leaves the heap
   the same whatever the command line and environment allocated, so the
   peak major heap after it is the compile's peak and repeats exactly. *)
let compile_all jobs = List.map (fun (mode, prog) -> compile_one mode prog (prog.circuit ())) jobs

let compile_programs jobs =
  Gc.full_major ();
  let compiled = compile_all jobs in
  put "compile_peak_heap_mb" "MB" (mb_of_words (Gc.quick_stat ()).Gc.top_heap_words);
  put "program_bootstraps" "count"
    (float_of_int
       (List.fold_left (fun acc c -> acc + c.Pipeline.stats.Circuit_stats.bootstraps) 0 compiled));
  compiled

(* ------------------------------------------------------------------ *)
(* Per-layer measurements shared by every workload (traced run only)    *)
(* ------------------------------------------------------------------ *)

(* Spans stay off around the untimed and untraced passes of a traced run,
   so the end-to-end numbers it compares against are measured the same
   way as in an untraced run. *)
let untraced f =
  let was = Spans.enabled () in
  Spans.set_enabled false;
  Fun.protect ~finally:(fun () -> Spans.set_enabled was) f

(* Pipeline.compile's phases as separate calls to the public functions it
   makes, each in its own span. *)
let decomposed_compile mode net =
  span "pipeline.compile" (fun () ->
      let netlist, report =
        match mode with
        | Optimize ->
          let n, r = span "synth.optimize" (fun () -> Opt.optimize net) in
          (n, Some r)
        | Lut_cover ->
          let n, r = span "synth.lut_cover" (fun () -> Opt.lut_cover net) in
          (n, Some r)
        | Unoptimized -> (net, None)
      in
      let binary = span "circuit.assemble" (fun () -> Binary.assemble netlist) in
      let stats = span "circuit.stats" (fun () -> Circuit_stats.compute netlist) in
      let schedule = span "circuit.levelize" (fun () -> Levelize.run netlist) in
      (report, binary, stats, schedule))

(* Total duration of the spans named [name] that began at or after
   [since]. *)
let span_sum ~since name =
  List.fold_left
    (fun acc s -> if s.Spans.name = name && s.Spans.t0 >= since then acc +. (s.Spans.t1 -. s.Spans.t0) else acc)
    0.0 (Spans.spans ())

let compile_phases =
  [ "frontend.build"; "synth.optimize"; "synth.lut_cover"; "circuit.assemble"; "circuit.stats";
    "circuit.levelize"; "pipeline.stream" ]

let phase_sum ~since = List.fold_left (fun acc n -> acc +. span_sum ~since n) 0.0 compile_phases

(* Replays a finished netlist into a streaming compile. *)
let replay net dst =
  let args = Array.of_list (List.map (fun (n, _) -> Netlist.input dst n) (Netlist.inputs net)) in
  let map = Netlist.instantiate dst ~template:net ~args in
  List.iter (fun (n, id) -> Netlist.mark_output dst n map.(id)) (Netlist.outputs net)

(* The frontend, synth, circuit and pipeline layers on one program: its
   frontend build, a streaming compile, and both one-shot compile paths
   split into phases.  Returns when the section began, so a caller can sum
   its spans. *)
let compile_layers ~name ~circuit ~stream_builder =
  let since = now () in
  let net = span "frontend.build" circuit in
  let _, report =
    span "pipeline.stream" (fun () ->
        Pipeline.compile_stream_to_bytes ~window:512 ~name (stream_builder net))
  in
  let _, binary, stats, schedule = decomposed_compile Optimize net in
  let lut_report, _, _, _ = decomposed_compile Lut_cover net in
  let sum = span_sum ~since in
  put "frontend.build_s" "s" (sum "frontend.build");
  put "frontend.nodes" "count" (float_of_int (Netlist.node_count net));
  put "synth.optimize_s" "s" (sum "synth.optimize");
  put "synth.lut_cover_s" "s" (sum "synth.lut_cover");
  (match lut_report with
   | Some r ->
     put "synth.cover_ratio" "ratio"
       (float_of_int r.Opt.bootstraps_after /. float_of_int (max 1 r.Opt.bootstraps_before))
   | None -> ());
  put "circuit.assemble_s" "s" (sum "circuit.assemble");
  put "circuit.levelize_s" "s" (sum "circuit.levelize");
  put "circuit.binary_mb" "MB" (mb_of_bytes (Bytes.length binary));
  put "circuit.waves" "count" (float_of_int schedule.Levelize.depth);
  put "circuit.max_width" "count" (float_of_int stats.Circuit_stats.max_width);
  put "pipeline.stream_s" "s" (sum "pipeline.stream");
  put "pipeline.stream_gate_ratio" "ratio"
    (float_of_int report.Pipeline.gates /. float_of_int (max 1 stats.Circuit_stats.gates));
  since

(* A streaming compile as the first work of a traced run: the growth of
   the peak major heap over it is the stream's own peak, which later in
   the process would hide under heap the other jobs already grew. *)
let stream_heap_first ~name builder =
  let top () = (Gc.quick_stat ()).Gc.top_heap_words in
  let top0 = top () in
  ignore (Pipeline.compile_stream_to_bytes ~window:512 ~name builder);
  put "pipeline.stream_heap_mb" "MB" (mb_of_words (top () - top0))

(* Compile residual of an execution workload: the median untraced
   compile of its programs against the median sum of the phases of the
   same compile split into spans. *)
let compile_residual jobs =
  let reps = 20 in
  let total = untraced (fun () -> Sampling.median (Array.init reps (fun _ -> snd (timed (fun () -> compile_all jobs))))) in
  let parts =
    Sampling.median
      (Array.init reps (fun _ ->
           let since = now () in
           List.iter (fun (mode, prog) -> ignore (decomposed_compile mode (span "frontend.build" prog.circuit))) jobs;
           phase_sum ~since))
  in
  put "residual.compile" "ratio" ((total -. parts) /. total)

(* Negacyclic polynomial products on both transforms at both ring
   degrees the workloads use. *)
let fft_layers () =
  let rng = Rng.create ~seed:(derive "fft") () in
  List.iter
    (fun n ->
      Negacyclic.precompute n;
      Ntt.precompute n;
      let fa = Array.init n (fun _ -> Rng.float rng -. 0.5) in
      let fb = Array.init n (fun _ -> float_of_int (Rng.int rng 64 - 32)) in
      let ia = Array.init n (fun _ -> Rng.bits32 rng - (1 lsl 31)) in
      let ib = Array.init n (fun _ -> Rng.int rng 64 - 32) in
      let us f = 1e6 *. f in
      put (Printf.sprintf "fft.negacyclic_polymul_%d_us" n) "us"
        (us (per_call ~name:"fft.negacyclic_polymul" ~min:50 ~budget:0.3 (fun () ->
                 ignore (Negacyclic.polymul fa fb))));
      put (Printf.sprintf "fft.ntt_polymul_%d_us" n) "us"
        (us (per_call ~name:"fft.ntt_polymul" ~min:50 ~budget:0.3 (fun () -> ignore (Ntt.polymul ia ib)))))
    [ 256; 1024 ]

(* The bootstrapping primitives at the workload's parameters, each timed
   per call from its public function.  Returns nothing; the gate
   residual compares gate time with blind rotation plus key switch. *)
let tfhe_layers (p : Params.t) client cloud =
  let rng = Rng.create ~seed:(derive "tfhe") () in
  let n = p.Params.tlwe.Params.ring_n in
  let tlwe_key = Tlwe.key_gen rng p in
  let ws = Tgsw.workspace_create p in
  let g = Tgsw.to_fft p (Tgsw.encrypt_int rng p tlwe_key 1) in
  let c = Tlwe.encrypt_poly rng p tlwe_key (Array.make n 0) in
  let prod = Tlwe.trivial p (Poly.zero n) in
  let acc = Tlwe.trivial p (Poly.zero n) in
  let mu = Params.mu p in
  let testvect = Array.make n mu in
  let bit_a = Client.encrypt_bit client true and bit_b = Client.encrypt_bit client false in
  let combined = Lwe.add bit_a bit_b in
  let bkey = cloud.Gates.bootstrap_key and kskey = cloud.Gates.keyswitch_key in
  let extracted = Bootstrap.bootstrap_wo_keyswitch p bkey ~mu bit_a in
  let ks_a = Array.make p.Params.lwe.Params.n 0 in
  let ctx = Gates.context cloud in
  let slow = p.Params.tlwe.Params.ring_n >= 1024 in
  let budget = if slow then 1.0 else 0.3 in
  put "tfhe.external_product_us" "us"
    (1e6 *. per_call ~name:"tfhe.external_product" ~min:20 ~budget (fun () ->
         Tgsw.external_product_into p ws g c ~dst:prod));
  let br =
    per_call ~name:"tfhe.blind_rotate" ~min:5 ~budget (fun () ->
        Bootstrap.blind_rotate_into p ws bkey ~testvect ~acc combined)
  in
  let ks =
    per_call ~name:"tfhe.keyswitch" ~min:5 ~budget (fun () ->
        ignore (Keyswitch.apply_into kskey extracted ~a:ks_a))
  in
  let gate =
    per_call ~name:"tfhe.gate" ~min:5 ~budget (fun () -> ignore (Gates.nand_gate_in ctx bit_a bit_b))
  in
  let batch = Gates.batch_context cloud ~cap:8 in
  let rows = Lwe_array.of_samples ~n:p.Params.lwe.Params.n (Array.make 8 combined) in
  let launch =
    per_call ~name:"tfhe.batch8_launch" ~min:3 ~budget (fun () ->
        ignore (Gates.bootstrap_batch_rows batch rows))
  in
  put "tfhe.blind_rotate_ms" "ms" (1e3 *. br);
  put "tfhe.keyswitch_ms" "ms" (1e3 *. ks);
  put "tfhe.gate_ms" "ms" (1e3 *. gate);
  put "tfhe.batch8_gate_ms" "ms" (1e3 *. launch /. 8.0);
  put "residual.gate" "ratio" ((gate -. (br +. ks)) /. gate)

(* Client-side cost per bit, from the encrypt/decrypt spans of the
   traced passes. *)
let client_layers ~bits_encrypted ~bits_decrypted =
  let per_bit name bits = 1e3 *. Array.fold_left ( +. ) 0.0 (Spans.durations name) /. float_of_int (max 1 bits) in
  put "client.encrypt_ms" "ms" (per_bit "client.encrypt" bits_encrypted);
  put "client.decrypt_ms" "ms" (per_bit "client.decrypt" bits_decrypted)

(* ------------------------------------------------------------------ *)
(* Encrypted passes through Server.run                                 *)
(* ------------------------------------------------------------------ *)

(* One encrypted pass: draw inputs, encrypt, run, decrypt, check against
   the program's own reference.  Only the Server.run call is timed. *)
let encrypted_pass ~backend ~client ~cloud ~rng prog compiled =
  let bits = prog.draw rng in
  let cts = span "client.encrypt" (fun () -> Client.encrypt_bits client bits) in
  let (outs, stats), wall = timed (fun () -> span "server.run" (fun () -> Server.run backend cloud compiled cts)) in
  let got = span "client.decrypt" (fun () -> Client.decrypt_bits client outs) in
  check prog.pname (int_of_bits got = prog.reference bits);
  (wall, stats, Array.length bits, Array.length outs)

let wave_residual ~wall (stats : Executor.stats) =
  let waves = Array.fold_left ( +. ) 0.0 stats.Executor.wave_wall in
  put "residual.waves" "ratio" ((wall -. waves) /. wall)

let par_layers (stats : Executor.stats) =
  match stats.Executor.detail with
  | Executor.Multicore_stats s ->
    put "par.busy_s" "s" (Array.fold_left ( +. ) 0.0 s.Par_eval.per_domain_busy);
    put "par.achieved_speedup" "x" s.Par_eval.achieved_speedup;
    put "par.ideal_speedup" "x" s.Par_eval.ideal_speedup
  | _ -> failwith "par_layers: not a Multicore run"

let dist_layers (stats : Executor.stats) =
  match stats.Executor.detail with
  | Executor.Multiprocess_stats s ->
    put "dist.startup_s" "s" s.Dist_eval.startup_time;
    put "dist.dispatch_s" "s" s.Dist_eval.dispatch_time;
    put "dist.transfer_s" "s" s.Dist_eval.transfer_time;
    put "dist.compute_s" "s" s.Dist_eval.compute_time;
    put "dist.wire_mb" "MB" (mb_of_bytes (s.Dist_eval.bytes_to_workers + s.Dist_eval.bytes_from_workers));
    put "dist.retries" "count" (float_of_int s.Dist_eval.retries)
  | _ -> failwith "dist_layers: not a Multiprocess run"

(* ------------------------------------------------------------------ *)
(* The service: tenants, closed loop, open loop                        *)
(* ------------------------------------------------------------------ *)

type tenant = {
  tclient : Client.t;
  tcloud : Gates.cloud_keyset;
  conn : Service_client.t;
  session : int;
  prog : program;
  compiled : Pipeline.compiled;
}

(* A request ready to submit: encrypted inputs and the expected bits. *)
type request = { cts : Lwe.sample array; expected : int; nbits : int }

type served = {
  tenant_ix : int;
  rid : int;
  submitted : float;
  replied : float;
  outcome : Service_client.outcome;
  req : request;
}

let prepare t rng =
  let bits = t.prog.draw rng in
  let cts = span "client.encrypt" (fun () -> Client.encrypt_bits t.tclient bits) in
  { cts; expected = t.prog.reference bits; nbits = Array.length bits }

let submit t r =
  Service_client.submit t.conn ~session:t.session ~name:t.prog.pname ~program:t.compiled.Pipeline.binary
    ~inputs:r.cts

(* Decrypt and check one reply; failed or refused requests count as
   failures. *)
let settle tenants (s : served) =
  let t = tenants.(s.tenant_ix) in
  match s.outcome with
  | Service_client.Done { outputs; _ } ->
    let got = span "client.decrypt" (fun () -> Client.decrypt_bits t.tclient outputs) in
    check t.prog.pname (int_of_bits got = s.req.expected)
  | Service_client.Failed { code; message } ->
    check (Printf.sprintf "%s refused (%s: %s)" t.prog.pname (Service.string_of_error_code code) message) false

type server = { domain : Service.stats Domain.t; tenants : tenant array }

(* Start the service in its own domain, connect one client per tenant,
   register its cloud keyset and open a session. *)
let start_server (keys : (Client.t * Gates.cloud_keyset * Pipeline.compiled * program) list) p =
  let port = Atomic.make 0 in
  let domain =
    Domain.spawn (fun () ->
        Service.serve ~config:{ Service.default_config with port = 0 } ~ready:(Atomic.set port) ())
  in
  while Atomic.get port = 0 do
    Unix.sleepf 0.001
  done;
  let tenants =
    Array.of_list
      (List.mapi
         (fun i (tclient, tcloud, compiled, prog) ->
           let conn = Service_client.connect ~port:(Atomic.get port) () in
           let client_id = Printf.sprintf "tenant-%d" i in
           Service_client.register conn ~client_id tcloud;
           let session = Service_client.open_session conn ~client_id p in
           { tclient; tcloud; conn; session; prog; compiled })
         keys)
  in
  { domain; tenants }

let stop_server s =
  Service_client.shutdown s.tenants.(0).conn;
  Array.iter (fun t -> Service_client.close t.conn) s.tenants;
  ignore (Domain.join s.domain)

(* One closed-loop pass: each tenant's thread sends its pool of requests,
   keeping [outstanding] in flight.  A tenant sends one program, so its
   replies come back in submission order and awaiting the oldest request
   times every reply when it arrives.  Returns the replies and the pass's
   wall time. *)
let closed_pass s ~outstanding pools =
  let results = Array.make (Array.length s.tenants) [] in
  let drive i =
    let t = s.tenants.(i) in
    let pool = pools.(i) in
    let q = Queue.create () in
    let sent = ref 0 in
    let send () =
      if !sent < Array.length pool then begin
        let req = pool.(!sent) in
        incr sent;
        let submitted = now () in
        Queue.push (submit t req, req, submitted) q
      end
    in
    for _ = 1 to outstanding do
      send ()
    done;
    while not (Queue.is_empty q) do
      let rid, req, submitted = Queue.pop q in
      let outcome = Service_client.await ~timeout:120.0 t.conn rid in
      results.(i) <- { tenant_ix = i; rid; submitted; replied = now (); outcome; req } :: results.(i);
      send ()
    done
  in
  let t0 = now () in
  let threads = Array.init (Array.length s.tenants) (fun i -> Thread.create drive i) in
  Array.iter Thread.join threads;
  let wall = now () -. t0 in
  (List.concat (Array.to_list (Array.map List.rev results)), wall)

(* Fresh encrypted requests for one pass, [count] per tenant. *)
let pools s ~count ~rng_tag =
  Array.mapi
    (fun i t ->
      let rng = Rng.create ~seed:(derive (rng_tag, i)) () in
      Array.init count (fun _ -> prepare t rng))
    s.tenants

(* Open loop: the main thread sends request [i] to tenant [i mod k] when
   it is due, whether or not earlier ones have finished; one reader
   thread per tenant awaits that tenant's requests in order. *)
let open_loop s ~count ~rate ~rng_tag =
  let k = Array.length s.tenants in
  let rngs = Array.init k (fun i -> Rng.create ~seed:(derive (rng_tag, i)) ()) in
  let reqs = Array.init count (fun i -> prepare s.tenants.(i mod k) rngs.(i mod k)) in
  let queues = Array.init k (fun _ -> Queue.create ()) in
  let lock = Mutex.create () and nonempty = Condition.create () in
  let replied = Array.make count 0.0 and outcomes = Array.make count None in
  let sent = Array.make count 0.0 and rids = Array.make count 0 in
  let reader ti =
    let rec loop () =
      Mutex.lock lock;
      while Queue.is_empty queues.(ti) do
        Condition.wait nonempty lock
      done;
      let i = Queue.pop queues.(ti) in
      Mutex.unlock lock;
      if i >= 0 then begin
        let o = Service_client.await ~timeout:120.0 s.tenants.(ti).conn rids.(i) in
        replied.(i) <- now ();
        outcomes.(i) <- Some o;
        loop ()
      end
    in
    loop ()
  in
  let readers = Array.init k (fun ti -> Thread.create reader ti) in
  let due = Sampling.due_times ~t0:(now () +. 0.05) ~rate count in
  Array.iteri
    (fun i d ->
      let slack = d -. now () in
      if slack > 0.0 then Thread.delay slack;
      let ti = i mod k in
      sent.(i) <- now ();
      rids.(i) <- submit s.tenants.(ti) reqs.(i);
      Mutex.lock lock;
      Queue.push i queues.(ti);
      Condition.broadcast nonempty;
      Mutex.unlock lock)
    due;
  Mutex.lock lock;
  Array.iter (fun q -> Queue.push (-1) q) queues;
  Condition.broadcast nonempty;
  Mutex.unlock lock;
  Array.iter Thread.join readers;
  let served =
    List.init count (fun i ->
        {
          tenant_ix = i mod k;
          rid = rids.(i);
          submitted = sent.(i);
          replied = replied.(i);
          outcome = Option.get outcomes.(i);
          req = reqs.(i);
        })
  in
  (served, due, sent, replied)

(* Server-side split of each completed request, for the service layer
   metrics and the latency residual. *)
let service_split served =
  List.filter_map
    (fun s ->
      match s.outcome with
      | Service_client.Done { queue_delay; exec_wall; _ } -> Some (s, queue_delay, exec_wall)
      | Service_client.Failed _ -> None)
    served

let service_layers ~closed ~open_served ~open_latency ~lateness (st : Service.stats) =
  let split = service_split (closed @ open_served) in
  let med f = Sampling.median (Array.of_list (List.map f split)) in
  put "service.queue_delay_s" "s" (med (fun (_, q, _) -> q));
  put "service.exec_s" "s" (med (fun (_, _, e) -> e));
  put "service.batch_fill" "gates/launch" st.Service.batch_fill;
  put "service.batch_launches" "count" (float_of_int st.Service.batch_launches);
  put "service.max_queue_depth" "count" (float_of_int st.Service.max_queue_depth);
  put "service.requests_failed" "count" (float_of_int st.Service.requests_failed);
  put "service.open_p50_s" "s" (Sampling.median open_latency);
  put "service.open_p90_s" "s"
    (match Sampling.tail_quantile open_latency 0.9 with
     | Some v -> v
     | None -> failwith "open loop too short for a p90 with 10 samples beyond it");
  put "service.generator_late_s" "s" (Sampling.quantile lateness 1.0);
  (* Client-observed latency (submit to reply) against the server's own
     queue + execution split, median over requests. *)
  put "residual.latency" "ratio"
    (med (fun (s, q, e) ->
         let client = s.replied -. s.submitted in
         (client -. (q +. e)) /. client))

(* ------------------------------------------------------------------ *)
(* Executor probe for layers a workload does not drive                 *)
(* ------------------------------------------------------------------ *)

(* Requests in an open-loop phase: 100 put 10 samples beyond p90. *)
let open_loop_requests = 100

(* The service probe is one tenant sending 6-deep XOR chains.  A closed
   pass of [probe_closed_requests] with [probe_outstanding] in flight
   feeds the queue/exec split; the open loop runs at a fixed
   [probe_open_rate], about half of the probe's closed-loop capacity
   measured when the benchmark was written: 25-26 requests/s with 4 in
   flight on a 2-vCPU VM. *)
let probe_outstanding = 4
let probe_closed_requests = 16
let probe_open_rate = 13.0

let probe_executors ~par ~dist ~service =
  if par || dist || service then begin
    let p = Params.test in
    Params.precompute p;
    let client, cloud = Client.keygen ~params:p ~seed:(derive "probe") () in
    let compiled = Pipeline.compile ~name:hamming.pname (hamming.circuit ()) in
    let rng = Rng.create ~seed:(derive "probe-inputs") () in
    span "probe" (fun () ->
        if par then begin
          let wall, stats, _, _ =
            encrypted_pass ~backend:(Server.Multicore { workers = 2 }) ~client ~cloud ~rng hamming compiled
          in
          par_layers stats;
          (* A workload that runs Server.run itself has its own. *)
          if not (Hashtbl.mem metrics "residual.waves") then wave_residual ~wall stats
        end;
        if dist then begin
          let _, stats, _, _ =
            encrypted_pass
              ~backend:(Server.Multiprocess { workers = 2; config = None })
              ~client ~cloud ~rng hamming compiled
          in
          dist_layers stats
        end;
        if service then begin
          let chain_c = compile_one Unoptimized chain (chain.circuit ()) in
          let s = start_server [ (client, cloud, chain_c, chain) ] p in
          let closed, _ =
            closed_pass s ~outstanding:probe_outstanding
              (pools s ~count:probe_closed_requests ~rng_tag:"probe-closed")
          in
          let served, due, sent, replied =
            open_loop s ~count:open_loop_requests ~rate:probe_open_rate ~rng_tag:"probe-open"
          in
          let st = Service_client.stats s.tenants.(0).conn in
          stop_server s;
          let tenants = s.tenants in
          List.iter (settle tenants) (closed @ served);
          service_layers ~closed ~open_served:served
            ~open_latency:(Sampling.open_loop_latency ~due ~replied)
            ~lateness:(Sampling.lateness ~due ~sent) st
        end)
  end

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* Set-up runs at least [setup_min_reps] times and until [setup_budget]
   seconds have passed, so even a sub-second set-up is a median over
   seconds of work. *)
let setup_min_reps = 3
let setup_budget = 4.0

(* Run [once] repeatedly, each time with its own derived seed, and report
   the median as setup_s; keep the last result.  An earlier repetition's
   result goes to [release] and its key material is collected, both
   outside the timing, before the next one starts. *)
let setup ?(release = ignore) once =
  let times = ref [] and t0 = now () in
  let rec go i =
    Gc.full_major ();
    let r, dt = timed (fun () -> once i) in
    times := dt :: !times;
    if i + 1 < setup_min_reps || now () -. t0 < setup_budget then begin
      release r;
      go (i + 1)
    end
    else r
  in
  let r = go 0 in
  put "setup_s" "s" (Sampling.median (Array.of_list !times));
  r

let keygen_times = ref []

let keygen p ~tag =
  let (client, cloud), dt =
    timed (fun () -> span "tfhe.keygen" (fun () -> Client.keygen ~params:p ~seed:(derive tag) ()))
  in
  keygen_times := dt :: !keygen_times;
  (client, cloud)

let report_keygen () = put "tfhe.keygen_s" "s" (Sampling.median (Array.of_list !keygen_times))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* vip128-par and psi-ntt-dist: one program through Server.run.
   A pass is one encrypted Server.run. *)
let server_workload ~params ~backend ~mode ~prog ~handshake ~executor_layers () =
  let jobs = [ (mode, prog) ] in
  if !trace then stream_heap_first ~name:prog.pname (replay (prog.circuit ()));
  let compiled = match compile_programs jobs with [ c ] -> c | _ -> assert false in
  let client, cloud =
    setup (fun i ->
        let client, cloud = keygen params ~tag:("keygen", i) in
        Params.precompute params;
        if handshake then begin
          (* The dist backend starts its workers and ships the keyset
             inside every Server.run; a one-gate program does only that. *)
          let net = Netlist.create () in
          let a = Netlist.input net "a" and b = Netlist.input net "b" in
          Netlist.mark_output net "o" (Netlist.gate net Gate.And a b);
          let tiny = Pipeline.compile ~name:"handshake" net in
          ignore (Server.run backend cloud tiny (Client.encrypt_bits client [| true; false |]))
        end;
        (client, cloud))
  in
  let rng = Rng.create ~seed:(derive "inputs") () in
  let pass () = encrypted_pass ~backend ~client ~cloud ~rng prog compiled in
  let wall (w, _, _, _) = w in
  (* One untimed warm-up pass, then the timed ones. *)
  let passes =
    untraced (fun () ->
        ignore (pass ());
        repeat ~min:3 ~budget:!seconds (fun _ -> pass ()))
  in
  let pass_s = Sampling.median (Array.map wall passes) in
  print_passes (Array.map wall passes);
  put "pass_s" "s" pass_s;
  if !trace then begin
    let traced = repeat ~min:2 ~budget:0.0 (fun _ -> pass ()) in
    put "trace.overhead_s" "s" (Sampling.median (Array.map wall traced) -. pass_s);
    let last_wall, stats, _, _ = traced.(Array.length traced - 1) in
    wave_residual ~wall:last_wall stats;
    client_layers
      ~bits_encrypted:(Array.fold_left (fun a (_, _, i, _) -> a + i) 0 traced)
      ~bits_decrypted:(Array.fold_left (fun a (_, _, _, o) -> a + o) 0 traced);
    executor_layers stats;
    report_keygen ();
    ignore (compile_layers ~name:prog.pname ~circuit:prog.circuit ~stream_builder:replay);
    compile_residual jobs;
    fft_layers ();
    tfhe_layers params client cloud
  end

let vip128_par () =
  server_workload ~params:Params.default_128 ~backend:(Server.Multicore { workers = 2 }) ~mode:Optimize
    ~prog:hamming ~handshake:false
    ~executor_layers:(fun stats ->
      par_layers stats;
      probe_executors ~par:false ~dist:true ~service:true)
    ()

let psi_ntt_dist () =
  server_workload
    ~params:(Params.with_transform Params.test Transform.Ntt)
    ~backend:(Server.Multiprocess { workers = 2; config = None })
    ~mode:Lut_cover ~prog:psi ~handshake:true
    ~executor_layers:(fun stats ->
      dist_layers stats;
      probe_executors ~par:true ~dist:false ~service:true)
    ()

(* A closed-loop pass sends [svc_pass_requests] requests per tenant with
   [svc_outstanding] in flight on each connection. *)
let svc_pass_requests = 24
let svc_outstanding = 8

(* The open-loop rate is fixed, not calibrated per run, so that a slower
   service meets the same offered load and shows it as latency.  It is
   about half of the closed-loop capacity measured when the benchmark was
   written: ~13.7 requests/s on a 2-vCPU VM. *)
let svc_open_rate = 7.0

(* svc-2tenant: tenant 0 sends XOR chains, tenant 1 the LUT-covered
   Hamming kernel, each on its own connection and keyset.  A pass is one
   closed-loop round of requests.
   The open-loop phase runs in the traced run only, for the latency
   quantiles, which need 100 requests to put 10 samples beyond p90. *)
let svc_2tenant () =
  let p = Params.test in
  let jobs = [ (Unoptimized, chain); (Lut_cover, hamming) ] in
  if !trace then stream_heap_first ~name:hamming.pname (replay (hamming.circuit ()));
  let compiled = compile_programs jobs in
  let programs = List.combine compiled (List.map snd jobs) in
  let s =
    setup ~release:stop_server (fun i ->
        let keys =
          List.mapi
            (fun ti (c, prog) ->
              let client, cloud = keygen p ~tag:("keygen", i, ti) in
              (client, cloud, c, prog))
            programs
        in
        Params.precompute p;
        start_server keys p)
  in
  let pass s k =
    let served, wall =
      closed_pass s ~outstanding:svc_outstanding
        (pools s ~count:svc_pass_requests ~rng_tag:("closed", Spans.enabled (), k))
    in
    List.iter (settle s.tenants) served;
    (served, wall)
  in
  let warm_up s =
    untraced (fun () ->
        let warm, _ = closed_pass s ~outstanding:1 (pools s ~count:2 ~rng_tag:"warm") in
        List.iter (settle s.tenants) warm)
  in
  (* Only the wall times of the timed passes are kept: holding every
     reply would grow the heap that the server domain's collections share. *)
  let walls =
    untraced (fun () ->
        warm_up s;
        repeat ~min:3 ~budget:!seconds (fun k -> snd (pass s k)))
  in
  let pass_s = Sampling.median walls in
  print_passes walls;
  put "pass_s" "s" pass_s;
  stop_server s;
  if !trace then begin
    (* The traced phase runs on a fresh server with the same keysets, so
       the server's lifetime counters (launches, queue high-water mark,
       failures) cover exactly its fixed work: one warm-up, two closed
       passes and the open loop, not however many passes fit in
       --seconds. *)
    let s =
      start_server (Array.to_list (Array.map (fun t -> (t.tclient, t.tcloud, t.compiled, t.prog)) s.tenants)) p
    in
    let tenants = s.tenants in
    warm_up s;
    let traced = repeat ~min:2 ~budget:0.0 (pass s) in
    put "trace.overhead_s" "s" (Sampling.median (Array.map snd traced) -. pass_s);
    let closed = List.concat_map fst (Array.to_list traced) in
    let served, due, sent, replied =
      open_loop s ~count:open_loop_requests ~rate:svc_open_rate ~rng_tag:"open"
    in
    List.iter (settle tenants) served;
    List.iter
      (fun r -> Spans.record ~req:r.rid "service.request" ~t0:r.submitted ~t1:r.replied)
      (closed @ served);
    service_layers ~closed ~open_served:served
      ~open_latency:(Sampling.open_loop_latency ~due ~replied)
      ~lateness:(Sampling.lateness ~due ~sent)
      (Service_client.stats tenants.(0).conn);
    stop_server s;
    client_layers
      ~bits_encrypted:(List.fold_left (fun a r -> a + r.req.nbits) 0 (closed @ served))
      ~bits_decrypted:(List.length (closed @ served));
    report_keygen ();
    ignore (compile_layers ~name:hamming.pname ~circuit:hamming.circuit ~stream_builder:replay);
    compile_residual jobs;
    fft_layers ();
    tfhe_layers p tenants.(0).tclient tenants.(0).tcloud;
    probe_executors ~par:true ~dist:true ~service:false
  end

(* compile-paper: mnist_s through the three compile paths; a pass is
   those three compile jobs.  Its set-up builds the frontend netlist, draws
   the seeded image and evaluates the uncompiled netlist for the reference.
   That also grows the heap to the netlist's size, the only lazy state the
   compile jobs have, so no separate warm-up pass runs.  Every emitted
   binary is executed in the plaintext domain by the streaming executor
   and checked against the reference. *)
let mnist = Option.get (Suite.find "mnist_s")

(* The streaming job constructs the model itself, so its frontend runs
   inside the stream as the paper-scale path intends. *)
let mnist_stream_builder =
  let model = Networks.mnist_model ~seed:101 ~image:28 ~conv_ch:1 in
  fun net ->
    let x = Tensor.input net "x" Networks.dtype [| 1; 28; 28 |] in
    Tensor.output net "y" (Nn.run ~reuse:true net model x)

let compile_paper () =
  if !trace then stream_heap_first ~name:"mnist_s" mnist_stream_builder;
  let net, inputs, expected =
    setup (fun i ->
        let net = mnist.Pytfhe_vipbench.Workload.circuit () in
        let rng = Rng.create ~seed:(derive ("image", i)) () in
        let inputs = Array.init (Netlist.input_count net) (fun _ -> Rng.bool rng) in
        let expected = Array.of_list (List.map snd (Plain_eval.run net inputs)) in
        (net, inputs, expected))
  in
  (* Each job keeps only its binary and bootstrap count, so the netlists
     of one job are garbage while the next one runs. *)
  let keep c = (c.Pipeline.binary, c.Pipeline.stats.Circuit_stats.bootstraps) in
  let jobs () =
    let opt = keep (Pipeline.compile ~name:"mnist_s" net) in
    let lut = keep (Pipeline.compile ~lut_cover:true ~name:"mnist_s" net) in
    let streamed, report =
      Pipeline.compile_stream_to_bytes ~window:512 ~name:"mnist_s" mnist_stream_builder
    in
    [ ("optimize", opt); ("lut-cover", lut); ("stream", (streamed, report.Pipeline.bootstraps)) ]
  in
  let check_binaries out =
    List.iter
      (fun (what, (binary, _)) ->
        check ("mnist_s " ^ what) (Stream_exec.run_bits binary inputs = expected))
      out
  in
  let walls = ref [] in
  Gc.full_major ();
  let t0 = now () in
  while List.length !walls < 2 || now () -. t0 < !seconds do
    let out, dt = timed jobs in
    if !walls = [] then begin
      put "compile_peak_heap_mb" "MB" (mb_of_words (Gc.quick_stat ()).Gc.top_heap_words);
      put "program_bootstraps" "count"
        (float_of_int (List.fold_left (fun acc (_, (_, b)) -> acc + b) 0 out))
    end;
    walls := dt :: !walls;
    check_binaries out
  done;
  let walls = Array.of_list (List.rev !walls) in
  let pass_s = Sampling.median walls in
  print_passes walls;
  put "pass_s" "s" pass_s;
  if !trace then begin
    let since =
      compile_layers ~name:"mnist_s" ~circuit:mnist.Pytfhe_vipbench.Workload.circuit
        ~stream_builder:(fun _ -> mnist_stream_builder)
    in
    (* A pass covers the stream job and both one-shot jobs, not the
       frontend build of the netlist they share. *)
    let parts = phase_sum ~since -. span_sum ~since "frontend.build" in
    let traced = span_sum ~since "pipeline.compile" +. span_sum ~since "pipeline.stream" in
    put "residual.compile" "ratio" ((pass_s -. parts) /. pass_s);
    put "trace.overhead_s" "s" (traced -. pass_s);
    let p = Params.test in
    Params.precompute p;
    let client, cloud = keygen p ~tag:"keygen" in
    let bits = Array.init 64 (fun i -> i mod 3 = 0) in
    let cts = span "client.encrypt" (fun () -> Client.encrypt_bits client bits) in
    ignore (span "client.decrypt" (fun () -> Client.decrypt_bits client cts));
    client_layers ~bits_encrypted:64 ~bits_decrypted:64;
    report_keygen ();
    fft_layers ();
    tfhe_layers p client cloud;
    probe_executors ~par:true ~dist:true ~service:true
  end

let workloads =
  [
    ("compile-paper", compile_paper);
    ("vip128-par", vip128_par);
    ("psi-ntt-dist", psi_ntt_dist);
    ("svc-2tenant", svc_2tenant);
  ]

(* ------------------------------------------------------------------ *)
(* Command line and output                                             *)
(* ------------------------------------------------------------------ *)

(* The metric names and units this run must print, from BENCHMARK.json
   at the root of the checkout. *)
let declared section =
  let text = In_channel.with_open_text "BENCHMARK.json" In_channel.input_all in
  let field name j = match Json.member name j with Some v -> v | None -> failwith ("BENCHMARK.json: no " ^ name) in
  let str j = match Json.to_str j with Some s -> s | None -> failwith "BENCHMARK.json: expected a string" in
  match Json.to_list (field section (Json.parse text)) with
  | Some l -> List.map (fun m -> (str (field "name" m), str (field "unit" m))) l
  | None -> failwith ("BENCHMARK.json: " ^ section ^ " is not a list")

let print_table () =
  let rows = Spans.table (Spans.spans ()) in
  Printf.printf "\n%-28s %8s %12s %12s\n" "SPAN" "COUNT" "TOTAL_S" "SELF_S";
  List.iter
    (fun r -> Printf.printf "%-28s %8d %12.6f %12.6f\n" r.Spans.row_name r.Spans.count r.Spans.total r.Spans.self)
    rows

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: compile-paper vip128-par psi-ntt-dist svc-2tenant";
  exit 2

let () =
  (* In a process spawned by Dist_eval this serves gates and never returns. *)
  Dist_eval.worker_entry ();
  let workload = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string v;
      parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> false | "1" -> true | _ -> usage ());
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run = match List.assoc_opt !workload workloads with Some f -> f | None -> usage () in
  let section = if !trace then "per_layer" else "end_to_end" in
  try
    let wanted = declared section in
    Spans.set_enabled !trace;
    run ();
    if !trace then begin
      print_table ();
      (try Unix.mkdir "perfbench_out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Spans.write_json (Printf.sprintf "perfbench_out/spans-%s-%d.json" !workload !seed) (Spans.spans ())
    end;
    let fields =
      List.map
        (fun (name, unit) ->
          match Hashtbl.find_opt metrics name with
          | Some (v, u) when u = unit && Float.is_finite v ->
            Printf.printf "%-34s %20.9g %s\n" name v unit;
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
          | Some (v, u) -> failwith (Printf.sprintf "metric %s = %g %s (declared unit %s)" name v u unit)
          | None -> failwith ("metric not measured: " ^ name))
        wanted
    in
    let correct = !failed = 0 && !attempted > 0 in
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
      !attempted !failed (String.concat ", " fields);
    exit (if correct then 0 else 1)
  with e ->
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    exit 2

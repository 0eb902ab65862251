open Pytfhe_backend

(* ------------------------------------------------------------------ *)
(* Real execution                                                      *)
(* ------------------------------------------------------------------ *)

type exec_backend =
  | Cpu
  | Multicore of { workers : int }
  | Multiprocess of { workers : int; config : Dist_eval.config option }

(* Round-trippable names: [exec_backend_of_name (exec_backend_name b)]
   recovers [b] (modulo an explicit [config], which has no spelling), and
   the spellings are exactly what the CLI's [--backend] flag accepts, so
   "serve --backend dist" and the bench artifacts agree on names. *)
let exec_backend_name = function
  | Cpu -> "cpu"
  | Multicore { workers } ->
    if workers = 0 then "par" else Printf.sprintf "par:%d" workers
  | Multiprocess { workers; config } ->
    let w = match config with Some c -> c.Dist_eval.workers | None -> workers in
    Printf.sprintf "dist:%d" w

let exec_backend_of_name s =
  let workers_of tail ~who =
    match int_of_string_opt tail with
    | Some w when w >= 1 -> Ok w
    | _ -> Error (Printf.sprintf "%s: worker count must be a positive integer, got %S" who tail)
  in
  match String.split_on_char ':' s with
  | [ "cpu" ] -> Ok Cpu
  | [ "par" ] -> Ok (Multicore { workers = 0 })
  | [ "par"; w ] ->
    Result.map (fun workers -> Multicore { workers }) (workers_of w ~who:"par")
  | [ "dist" ] -> Ok (Multiprocess { workers = 2; config = None })
  | [ "dist"; w ] ->
    Result.map (fun workers -> Multiprocess { workers; config = None }) (workers_of w ~who:"dist")
  | _ ->
    Error
      (Printf.sprintf
         "unknown backend %S (expected cpu, par, par:N, dist or dist:N)" s)

let executor = function
  | Cpu -> Executor.cpu
  | Multicore { workers } ->
    if workers = 0 then Executor.multicore () else Executor.multicore ~workers ()
  | Multiprocess { workers; config } ->
    Executor.multiprocess ~workers ?config ()

(* The compiled binary goes in as one chunk with no segment limit, so the
   executed waves are exactly the program's levelized waves. *)
let run ?opts backend cloud compiled inputs =
  let (module E : Executor.S) = executor backend in
  E.run_stream ?opts ~window:max_int cloud
    (Pytfhe_circuit.Binary.source_of_bytes compiled.Pipeline.binary)
    inputs

(* ------------------------------------------------------------------ *)
(* Cost-model simulation                                               *)
(* ------------------------------------------------------------------ *)

type sim_platform =
  | Single_core
  | Distributed of { nodes : int }
  | Gpu of Cost_model.gpu
  | Gpu_cufhe of Cost_model.gpu


let sim_platform_name = function
  | Single_core -> "single-core CPU"
  | Distributed { nodes } -> Printf.sprintf "distributed CPU (%d nodes)" nodes
  | Gpu g -> Printf.sprintf "GPU (%s)" g.Cost_model.gpu_name
  | Gpu_cufhe g -> Printf.sprintf "cuFHE (%s)" g.Cost_model.gpu_name


let estimate ?(cost = Cost_model.paper_cpu) platform compiled =
  let sched = compiled.Pipeline.schedule in
  match platform with
  | Single_core ->
    float_of_int sched.Pytfhe_circuit.Levelize.total_bootstraps *. cost.Cost_model.gate_time
  | Distributed { nodes } -> (Sched_cpu.simulate { Sched_cpu.nodes; cost } sched).Sched_cpu.makespan
  | Gpu g -> (Sched_gpu.simulate_pytfhe g ~cpu:cost sched).Sched_gpu.makespan
  | Gpu_cufhe g -> (Sched_gpu.simulate_cufhe g ~cpu:cost sched).Sched_gpu.makespan

let speedup_over_single_core ?cost platform compiled =
  let single = estimate ?cost Single_core compiled in
  let t = estimate ?cost platform compiled in
  if t > 0.0 then single /. t else 0.0

(* ------------------------------------------------------------------ *)
(* Keyset persistence                                                  *)
(* ------------------------------------------------------------------ *)

module Wire = Pytfhe_util.Wire

let save_cloud_keyset ck path =
  let buf = Buffer.create (1 lsl 20) in
  Pytfhe_tfhe.Gates.write_cloud_keyset buf ck;
  Wire.to_file path buf

let load_cloud_keyset path = Pytfhe_tfhe.Gates.read_cloud_keyset (Wire.of_file path)

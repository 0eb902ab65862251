(* The pytfhe command-line driver: compile, inspect, estimate and run TFHE
   programs from the workload registry or from assembled binaries. *)

open Cmdliner
module Pipeline = Pytfhe_core.Pipeline
module Server = Pytfhe_core.Server
module Client = Pytfhe_core.Client
module Suite = Pytfhe_vipbench.Suite
module W = Pytfhe_vipbench.Workload
module Binary = Pytfhe_circuit.Binary
module Stats = Pytfhe_circuit.Stats
module Cost_model = Pytfhe_backend.Cost_model
module Executor = Pytfhe_backend.Executor
module Exec_opts = Pytfhe_backend.Exec_opts
module Service = Pytfhe_service.Service
module Service_client = Pytfhe_service.Service_client
module Trace = Pytfhe_obs.Trace
module Metrics = Pytfhe_obs.Metrics

(* Shared --trace/--metrics plumbing: an enabled sink only when at least
   one export was requested, and the writes afterwards. *)
let sink_for ~trace ~metrics =
  if trace <> None || metrics <> None then Trace.create () else Trace.null

let export_obs obs ~trace ~metrics ~extra =
  (match trace with
  | Some path ->
    Trace.write_chrome obs path;
    Format.printf "wrote Chrome trace %s (open in chrome://tracing or ui.perfetto.dev)@." path
  | None -> ());
  match metrics with
  | Some path ->
    Metrics.write ~extra obs path;
    Format.printf "wrote metrics %s@." path
  | None -> ()

let trace_arg =
  Cmdliner.Arg.(value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace_event JSON of the run here (Perfetto-compatible).")

let metrics_arg =
  Cmdliner.Arg.(value & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write a flat metrics JSON (counters/gauges/span totals) here.")

let workload_conv =
  let parse s =
    match Suite.find s with
    | Some w -> Ok w
    | None ->
      Error (`Msg (Printf.sprintf "unknown workload %S (try `pytfhe list')" s))
  in
  Arg.conv (parse, fun fmt w -> Format.pp_print_string fmt w.W.name)

let platform_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "single" | "single-core" -> Ok Server.Single_core
    | "a5000" -> Ok (Server.Gpu Cost_model.gpu_a5000)
    | "4090" | "rtx4090" -> Ok (Server.Gpu Cost_model.gpu_4090)
    | "cufhe" | "cufhe-a5000" -> Ok (Server.Gpu_cufhe Cost_model.gpu_a5000)
    | s -> (
      match String.split_on_char ':' s with
      | [ "dist"; n ] | [ "distributed"; n ] -> (
        match int_of_string_opt n with
        | Some nodes when nodes > 0 -> Ok (Server.Distributed { nodes })
        | Some _ | None -> Error (`Msg "node count must be a positive integer"))
      | _ -> Error (`Msg (Printf.sprintf "unknown platform %S (single | dist:N | a5000 | 4090 | cufhe)" s)))
  in
  Arg.conv (parse, fun fmt b -> Format.pp_print_string fmt (Server.sim_platform_name b))

let workload_arg =
  Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see $(b,pytfhe list)).")

let lut_cover_arg =
  Arg.(value & flag
       & info [ "lut-cover" ]
           ~doc:"Cover gate cones with programmable 2-/3-input LUT cells during synthesis \
                 (one blind rotation per LUT, shared across same-input tables); typically \
                 cuts the bootstrap count well below the classic gate library's.")

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run verbose =
    Format.printf "%-20s %-6s %s@." "NAME" "CLASS" "DESCRIPTION";
    List.iter
      (fun w ->
        let cls =
          match w.W.parallelism with W.Wide -> "wide" | W.Serial -> "serial" | W.Mixed -> "mixed"
        in
        Format.printf "%-20s %-6s %s%s@." w.W.name cls w.W.description
          (if w.W.heavy then "  [heavy]" else "");
        if verbose && not w.W.heavy then begin
          let s = Stats.compute (w.W.circuit ()) in
          Format.printf "  %d gates, depth %d@." s.Stats.gates s.Stats.depth
        end)
      Suite.all
  in
  let verbose = Arg.(value & flag & info [ "stats" ] ~doc:"Also print gate counts (light workloads only).") in
  Cmd.v (Cmd.info "list" ~doc:"List the registered workloads") Term.(const run $ verbose)

let compile_cmd =
  let module Netlist = Pytfhe_circuit.Netlist in
  let run w out no_opt lut_cover stream window =
    let t0 = Unix.gettimeofday () in
    if stream then begin
      if lut_cover then failwith "--stream skips the synthesis phase; it cannot combine with --lut-cover";
      let path = match out with Some p -> p | None -> w.W.name ^ ".pytfhe" in
      (* Streaming wants a builder, not a finished netlist; replaying the
         workload's circuit through [Netlist.instantiate] gives one while
         keeping the registry's [circuit ()] contract unchanged. *)
      let src = w.W.circuit () in
      let builder dst =
        let args =
          Array.of_list
            (List.map (fun (name, _) -> Netlist.input dst name) (Netlist.inputs src))
        in
        let map = Netlist.instantiate dst ~template:src ~args in
        List.iter (fun (name, id) -> Netlist.mark_output dst name map.(id)) (Netlist.outputs src)
      in
      let r = Pipeline.compile_stream_to_file ?window ~name:w.W.name ~path builder in
      Format.printf "streamed %d gates (%d bootstrapped), %d waves, %d bytes to %s in %.2fs@."
        r.Pipeline.gates r.Pipeline.bootstraps r.Pipeline.depth r.Pipeline.bytes_emitted path
        (Unix.gettimeofday () -. t0);
      match window with
      | Some win ->
        Format.printf "CSE window %d: peak %d live entries, %d evicted@." win r.Pipeline.cse_peak
          r.Pipeline.cse_evicted
      | None -> ()
    end
    else begin
      let compiled = Pipeline.compile ~optimize:(not no_opt) ~lut_cover ~name:w.W.name (w.W.circuit ()) in
      Format.printf "%a" Pipeline.pp_summary compiled;
      Format.printf "compiled in %.2fs@." (Unix.gettimeofday () -. t0);
      match out with
      | Some path ->
        Binary.write_file path compiled.Pipeline.binary;
        Format.printf "wrote %s (%d bytes)@." path (Bytes.length compiled.Pipeline.binary)
      | None -> ()
    end
  in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the PyTFHE binary here.") in
  let no_opt = Arg.(value & flag & info [ "no-opt" ] ~doc:"Skip the synthesis optimization passes.") in
  let stream =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Emit the binary incrementally while the circuit is constructed \
                   (bounded-memory path; implies $(b,--no-opt), writes to $(b,-o) or \
                   $(i,WORKLOAD).pytfhe).")
  in
  let window =
    Arg.(value & opt (some int) None
         & info [ "window" ] ~docv:"N"
             ~doc:"With $(b,--stream): bound the construction-time CSE tables to $(docv) \
                   recent entries (unbounded by default).")
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a workload to a PyTFHE binary")
    Term.(const run $ workload_arg $ out $ no_opt $ lut_cover_arg $ stream $ window)

let disasm_cmd =
  let run path limit =
    let bytes = Binary.read_file path in
    let insts = Binary.disassemble bytes in
    let total = List.length insts in
    List.iteri
      (fun i inst -> if i < limit then Format.printf "%6d: %a@." i Binary.pp_instruction inst)
      insts;
    if total > limit then Format.printf "... (%d more instructions)@." (total - limit)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Assembled PyTFHE binary.") in
  let limit = Arg.(value & opt int 64 & info [ "n"; "limit" ] ~doc:"Maximum instructions to print.") in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a PyTFHE binary") Term.(const run $ path $ limit)

let stat_cmd =
  let run w lut_cover =
    let compiled = Pipeline.compile ~lut_cover ~name:w.W.name (w.W.circuit ()) in
    Format.printf "%a" Pipeline.pp_summary compiled;
    Format.printf "gate distribution:@.%a" Stats.pp_distribution compiled.Pipeline.stats
  in
  Cmd.v (Cmd.info "stat" ~doc:"Print statistics for a compiled workload")
    Term.(const run $ workload_arg $ lut_cover_arg)

let estimate_cmd =
  let run w backends =
    let compiled = Pipeline.compile ~name:w.W.name (w.W.circuit ()) in
    Format.printf "%s: %d bootstrapped gates@." w.W.name compiled.Pipeline.stats.Stats.bootstraps;
    let backends =
      if backends = [] then
        [ Server.Single_core; Server.Distributed { nodes = 1 }; Server.Distributed { nodes = 4 };
          Server.Gpu_cufhe Cost_model.gpu_a5000; Server.Gpu Cost_model.gpu_a5000;
          Server.Gpu Cost_model.gpu_4090 ]
      else backends
    in
    List.iter
      (fun b ->
        Format.printf "  %-28s %12.2f s  (%.1fx single core)@." (Server.sim_platform_name b)
          (Server.estimate b compiled)
          (Server.speedup_over_single_core b compiled))
      backends
  in
  let backends = Arg.(value & opt_all platform_conv [] & info [ "b"; "backend" ] ~docv:"PLATFORM" ~doc:"Simulated platform to price (repeatable).") in
  Cmd.v (Cmd.info "estimate" ~doc:"Estimate runtimes on the paper's platforms")
    Term.(const run $ workload_arg $ backends)

(* Resolve --backend plus the --workers/--dist-workers aliases into an
   exec_backend.  Without --backend the legacy inference applies:
   --dist-workers selects multiprocess, --workers > 1 multicore. *)
let exec_backend_of ~backend ~workers ~dist_workers =
  match backend with
  | Some `Cpu -> Server.Cpu
  | Some `Par ->
    Server.Multicore { workers = (match workers with Some w -> w | None -> 0) }
  | Some `Dist ->
    let w =
      if dist_workers > 0 then dist_workers
      else match workers with Some w -> w | None -> 2
    in
    Server.Multiprocess { workers = w; config = None }
  | None ->
    if dist_workers > 0 then Server.Multiprocess { workers = dist_workers; config = None }
    else (
      match workers with
      | Some w when w > 1 -> Server.Multicore { workers = w }
      | Some _ | None -> Server.Cpu)

(* Shared --transform plumbing: selects the polynomial-product backend the
   parameter set carries (and hence the keyset wire format). *)
let transform_conv =
  let parse s =
    match Pytfhe_fft.Transform.kind_of_name s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown transform %S (fft | ntt)" s))
  in
  Arg.conv (parse, fun fmt k -> Format.pp_print_string fmt (Pytfhe_fft.Transform.kind_name k))

let transform_arg =
  Arg.(value
       & opt (some transform_conv) None
       & info [ "transform" ] ~docv:"T"
           ~doc:"Polynomial-product backend: $(b,fft) (double-precision complex FFT; the \
                 default) or $(b,ntt) (exact double-prime NTT — bit-reproducible across \
                 machines).")

let apply_transform params = function
  | None -> params
  | Some t -> Pytfhe_tfhe.Params.with_transform params t

let run_cmd =
  let run w seed encrypted backend workers dist_workers batch lut_cover transform trace metrics =
    (match workers with Some w when w < 1 -> failwith "--workers must be >= 1" | _ -> ());
    if dist_workers < 0 then failwith "--dist-workers must be >= 1";
    if batch < 0 then failwith "--batch must be >= 1";
    let batch = if batch = 0 then None else Some batch in
    let rng = Pytfhe_util.Rng.create ~seed () in
    if encrypted then begin
      if w.W.heavy then failwith "workload too large for real encrypted execution; use a light one";
      let exec = exec_backend_of ~backend ~workers ~dist_workers in
      let obs = sink_for ~trace ~metrics in
      let params = apply_transform Pytfhe_tfhe.Params.test transform in
      Format.printf "generating keys (test parameters, %s transform)...@."
        (Pytfhe_fft.Transform.kind_name params.Pytfhe_tfhe.Params.transform);
      let client, cloud = Client.keygen ~params ~seed () in
      let compiled = Pipeline.compile ~obs ~lut_cover ~name:w.W.name (w.W.circuit ()) in
      let n = Pytfhe_circuit.Netlist.input_count compiled.Pipeline.netlist in
      let ins = Array.init n (fun _ -> Pytfhe_util.Rng.bool rng) in
      let cts = Client.encrypt_bits client ins in
      Format.printf "evaluating %d gates homomorphically on the %s backend...@."
        compiled.Pipeline.stats.Stats.gates (Server.exec_backend_name exec);
      let outs, stats =
        Server.run ~opts:{ Exec_opts.obs; batch } exec cloud compiled cts
      in
      let extra =
        match stats.Executor.detail with
        | Executor.Cpu_stats _ -> ""
        | Executor.Multicore_stats p ->
          Format.asprintf ", %.2fx parallel (wave-sync ideal %.2fx)"
            p.Pytfhe_backend.Par_eval.achieved_speedup
            p.Pytfhe_backend.Par_eval.ideal_speedup
        | Executor.Multiprocess_stats d ->
          Format.asprintf ", %d requests, %d B out / %d B in, %d worker%s lost"
            d.Pytfhe_backend.Dist_eval.requests_sent
            d.Pytfhe_backend.Dist_eval.bytes_to_workers
            d.Pytfhe_backend.Dist_eval.bytes_from_workers
            d.Pytfhe_backend.Dist_eval.workers_lost
            (if d.Pytfhe_backend.Dist_eval.workers_lost = 1 then "" else "s")
      in
      let bits = Client.decrypt_bits client outs in
      let expected = Pytfhe_backend.Plain_eval.run compiled.Pipeline.netlist ins in
      let ok = List.for_all2 (fun (_, e) g -> e = g) expected (Array.to_list bits) in
      let bootstraps = stats.Executor.bootstraps_executed in
      Format.printf "bootstraps: %d, wall time: %.1fs (%.1f ms/gate%s), outputs %s@."
        bootstraps stats.Executor.wall_time
        (1000.0 *. stats.Executor.wall_time /. float_of_int (max 1 bootstraps))
        extra
        (if ok then "MATCH plaintext reference" else "MISMATCH");
      export_obs obs ~trace ~metrics
        ~extra:
          [
            ("backend", Pytfhe_util.Json.String stats.Executor.backend);
            ("workers", Pytfhe_util.Json.Number (float_of_int stats.Executor.workers));
            ("wall_time_s", Pytfhe_util.Json.Number stats.Executor.wall_time);
          ]
    end
    else begin
      Format.printf "functional verification of %s: %!" w.W.name;
      let ok = w.W.verify rng in
      Format.printf "%s@." (if ok then "PASS" else "FAIL");
      if not ok then exit 1
    end
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let encrypted = Arg.(value & flag & info [ "encrypted" ] ~doc:"Run for real on TFHE ciphertexts (test parameters).") in
  let backend =
    Arg.(value
         & opt (some (enum [ ("cpu", `Cpu); ("par", `Par); ("dist", `Dist) ])) None
         & info [ "backend" ] ~docv:"BACKEND"
             ~doc:"Executor: $(b,cpu) (sequential), $(b,par) (OCaml domains), $(b,dist) \
                   (worker OS processes).  Default: inferred from --workers/--dist-workers.")
  in
  let workers =
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N"
           ~doc:"Evaluate on $(docv) OCaml domains (with --encrypted; 1 = the sequential reference executor).")
  in
  let dist_workers =
    Arg.(value & opt int 0 & info [ "dist-workers" ] ~docv:"N"
           ~doc:"Evaluate on $(docv) worker OS processes (with --encrypted; overrides --workers). \
                 Gate shards and ciphertexts travel over real socketpairs, as in the paper's Ray cluster.")
  in
  let batch =
    Arg.(value & opt int 0 & info [ "batch" ] ~docv:"N"
           ~doc:"Evaluate each wave in batches of $(docv) gates through the key-streaming \
                 bootstrap kernel (with --encrypted; cpu and par backends; bit-exact with \
                 the per-gate path).  Default: per-gate execution.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a workload (functionally, or homomorphically with --encrypted)")
    Term.(const run $ workload_arg $ seed $ encrypted $ backend $ workers $ dist_workers
          $ batch $ lut_cover_arg $ transform_arg $ trace_arg $ metrics_arg)

let verilog_cmd =
  let run w out =
    let text = Pytfhe_synth.Verilog.export ~module_name:w.W.name (w.W.circuit ()) in
    match out with
    | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
      Format.printf "wrote %s (%d bytes)@." path (String.length text)
    | None -> print_string text
  in
  let out = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Write the Verilog here (default: stdout).") in
  Cmd.v (Cmd.info "verilog" ~doc:"Export a workload as structural Verilog") Term.(const run $ workload_arg $ out)

let synth_cmd =
  let run path out =
    let ic = open_in path in
    let source = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
    let net =
      if Filename.check_suffix path ".json" then
        try Pytfhe_synth.Yosys_json.import source
        with Pytfhe_synth.Yosys_json.Import_error message -> failwith (path ^ ": " ^ message)
      else
        try Pytfhe_synth.Verilog.parse source
        with Pytfhe_synth.Verilog.Parse_error { line; message } ->
          failwith (Printf.sprintf "%s:%d: %s" path line message)
    in
    let compiled = Pipeline.compile ~name:(Filename.basename path) net in
    Format.printf "%a" Pipeline.pp_summary compiled;
    match out with
    | Some bin ->
      Binary.write_file bin compiled.Pipeline.binary;
      Format.printf "wrote %s@." bin
    | None -> ()
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.v" ~doc:"Structural Verilog source.") in
  let out = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Also assemble a PyTFHE binary.") in
  Cmd.v (Cmd.info "synth" ~doc:"Synthesize a structural Verilog or Yosys-JSON file into a TFHE program") Term.(const run $ path $ out)

let json_cmd =
  let run w out =
    let text = Pytfhe_synth.Yosys_json.export ~module_name:w.W.name (w.W.circuit ()) in
    match out with
    | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
      Format.printf "wrote %s (%d bytes)@." path (String.length text)
    | None -> print_string text
  in
  let out = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Write the Yosys JSON here (default: stdout).") in
  Cmd.v (Cmd.info "json" ~doc:"Export a workload as a Yosys JSON netlist") Term.(const run $ workload_arg $ out)

let dot_cmd =
  let run w out =
    let net = w.W.circuit () in
    let text =
      try Pytfhe_circuit.Dot.export ~graph_name:w.W.name net
      with Invalid_argument msg -> failwith (msg ^ " (use a smaller workload)")
    in
    match out with
    | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
      Format.printf "wrote %s@." path
    | None -> print_string text
  in
  let out = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Write the DOT graph here (default: stdout).") in
  Cmd.v (Cmd.info "dot" ~doc:"Export a small workload's DAG as Graphviz DOT") Term.(const run $ workload_arg $ out)

(* Load a circuit from any supported on-disk format. *)
let load_design path =
  if Filename.check_suffix path ".json" then
    Pytfhe_synth.Yosys_json.import
      (let ic = open_in path in
       Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)))
  else if Filename.check_suffix path ".v" then
    Pytfhe_synth.Verilog.parse
      (let ic = open_in path in
       Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)))
  else Binary.parse (Binary.read_file path)

let equiv_cmd =
  let run a b trials =
    let net_a = load_design a and net_b = load_design b in
    if Pytfhe_synth.Opt.equivalent ~trials net_a net_b then begin
      let how = if Pytfhe_circuit.Netlist.input_count net_a <= 16 then "exhaustively" else Printf.sprintf "on %d random vectors" trials in
      Format.printf "EQUIVALENT (checked %s)@." how
    end
    else begin
      Format.printf "NOT EQUIVALENT@.";
      exit 1
    end
  in
  let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A" ~doc:"First design (.v, .json, or PyTFHE binary).") in
  let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B" ~doc:"Second design.") in
  let trials = Arg.(value & opt int 1024 & info [ "trials" ] ~doc:"Random vectors for large circuits.") in
  Cmd.v (Cmd.info "equiv" ~doc:"Check functional equivalence of two designs (any supported format)")
    Term.(const run $ a $ b $ trials)

let vcd_cmd =
  let run w vectors seed out =
    let net = w.W.circuit () in
    let n = Pytfhe_circuit.Netlist.input_count net in
    let rng = Pytfhe_util.Rng.create ~seed () in
    let vecs = List.init vectors (fun _ -> Array.init n (fun _ -> Pytfhe_util.Rng.bool rng)) in
    let text = Pytfhe_backend.Vcd.of_evaluation net vecs in
    match out with
    | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
      Format.printf "wrote %s (%d timesteps)@." path vectors
    | None -> print_string text
  in
  let vectors = Arg.(value & opt int 8 & info [ "vectors" ] ~doc:"Number of random input vectors.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"PRNG seed for the vectors.") in
  let out = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Write the VCD here (default: stdout).") in
  Cmd.v (Cmd.info "vcd" ~doc:"Evaluate a workload on random vectors and dump a VCD waveform")
    Term.(const run $ workload_arg $ vectors $ seed $ out)

(* ------------------------------------------------------------------ *)
(* The file-based client/server protocol (Fig. 1): keygen -> encrypt on
   the client; eval on the (untrusted) server; decrypt on the client.    *)
(* ------------------------------------------------------------------ *)

let params_conv =
  let parse = function
    | "test" -> Ok Pytfhe_tfhe.Params.test
    | "default" | "default-128" -> Ok Pytfhe_tfhe.Params.default_128
    | s -> Error (`Msg (Printf.sprintf "unknown parameter set %S (test | default)" s))
  in
  Arg.conv (parse, fun fmt p -> Pytfhe_tfhe.Params.pp fmt p)

let keygen_cmd =
  let run params transform dir seed =
    let params = apply_transform params transform in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Format.printf "generating keys for %a ...@." Pytfhe_tfhe.Params.pp params;
    let t0 = Unix.gettimeofday () in
    let client, cloud = Client.keygen ~params ~seed () in
    let secret_path = Filename.concat dir "secret.key" in
    let cloud_path = Filename.concat dir "cloud.key" in
    Client.save client secret_path;
    Server.save_cloud_keyset cloud cloud_path;
    Format.printf "wrote %s (keep private) and %s (ship to the server) in %.1fs@." secret_path
      cloud_path (Unix.gettimeofday () -. t0);
    Format.printf "cloud key: %.1f MB on disk@."
      (float_of_int (Unix.stat cloud_path).Unix.st_size /. 1048576.0)
  in
  let dir = Arg.(value & opt string "keys" & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory.") in
  let params = Arg.(value & opt params_conv Pytfhe_tfhe.Params.test & info [ "params" ] ~doc:"Parameter set (test | default).") in
  let seed = Arg.(value & opt int 0xC11E47 & info [ "seed" ] ~doc:"Key generation seed.") in
  Cmd.v (Cmd.info "keygen" ~doc:"Generate a secret/cloud keyset pair")
    Term.(const run $ params $ transform_arg $ dir $ seed)

let bits_of_string s =
  String.to_seq s
  |> Seq.filter_map (function '0' -> Some false | '1' -> Some true | _ -> None)
  |> Array.of_seq

let encrypt_cmd =
  let run secret bits out =
    let client = Client.load secret in
    let plain = bits_of_string bits in
    if Array.length plain = 0 then failwith "--bits must contain at least one 0/1";
    let cts = Client.encrypt_bits client plain in
    Pytfhe_core.Ciphertext_file.write out cts;
    Format.printf "encrypted %d bits -> %s (%d bytes)@." (Array.length plain) out
      (Unix.stat out).Unix.st_size
  in
  let secret = Arg.(required & opt (some file) None & info [ "secret" ] ~docv:"FILE" ~doc:"Secret keyset.") in
  let bits = Arg.(required & opt (some string) None & info [ "bits" ] ~docv:"BITS" ~doc:"Plaintext bits, e.g. 10110 (LSB-first for integer inputs).") in
  let out = Arg.(value & opt string "input.ct" & info [ "o" ] ~docv:"FILE" ~doc:"Ciphertext bundle output.") in
  Cmd.v (Cmd.info "encrypt" ~doc:"Encrypt plaintext bits with the secret key") Term.(const run $ secret $ bits $ out)

let eval_cmd =
  let run cloud program input out stream transform trace metrics =
    let keyset = Server.load_cloud_keyset cloud in
    (match transform with
    | Some t when keyset.Pytfhe_tfhe.Gates.cloud_params.Pytfhe_tfhe.Params.transform <> t ->
      failwith
        (Printf.sprintf "--transform %s does not match the cloud keyset (built with %s)"
           (Pytfhe_fft.Transform.kind_name t)
           (Pytfhe_fft.Transform.kind_name
              keyset.Pytfhe_tfhe.Gates.cloud_params.Pytfhe_tfhe.Params.transform))
    | Some _ | None -> ());
    let cts = Pytfhe_core.Ciphertext_file.read input in
    let obs = sink_for ~trace ~metrics in
    let t0 = Unix.gettimeofday () in
    (* the paper's executor: stream the 128-bit instructions directly *)
    let outs =
      if stream then begin
        (* Pull the program from disk chunk by chunk — the binary is never
           resident, so a program bigger than memory still evaluates. *)
        Format.printf "evaluating %s (streamed) on %d input ciphertexts ...@." program
          (Array.length cts);
        In_channel.with_open_bin program (fun ic ->
            let outs, _ =
              Pytfhe_backend.Stream_exec.run_encrypted_stream
                ~opts:{ Exec_opts.default with obs } keyset (Binary.read_source ic) cts
            in
            outs)
      end
      else begin
        let bytes = Binary.read_file program in
        Format.printf "evaluating %d instructions on %d input ciphertexts ...@."
          (Binary.instruction_count bytes) (Array.length cts);
        Pytfhe_backend.Stream_exec.run_encrypted ~opts:{ Exec_opts.default with obs } keyset bytes
          cts
      end
    in
    Pytfhe_core.Ciphertext_file.write out outs;
    Format.printf "done in %.1fs -> %s@." (Unix.gettimeofday () -. t0) out;
    export_obs obs ~trace ~metrics
      ~extra:[ ("backend", Pytfhe_util.Json.String "stream") ]
  in
  let cloud = Arg.(required & opt (some file) None & info [ "cloud" ] ~docv:"FILE" ~doc:"Cloud keyset (no secrets inside).") in
  let program = Arg.(required & opt (some file) None & info [ "program" ] ~docv:"FILE" ~doc:"Assembled PyTFHE binary.") in
  let input = Arg.(required & opt (some file) None & info [ "input" ] ~docv:"FILE" ~doc:"Input ciphertext bundle.") in
  let out = Arg.(value & opt string "output.ct" & info [ "o" ] ~docv:"FILE" ~doc:"Output ciphertext bundle.") in
  let stream =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Pull the program from disk chunk by chunk instead of loading it resident \
                   (pairs with $(b,pytfhe compile --stream); required for binaries larger \
                   than memory).")
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Homomorphically evaluate a PyTFHE binary on a ciphertext bundle (server side)")
    Term.(const run $ cloud $ program $ input $ out $ stream $ transform_arg $ trace_arg $ metrics_arg)

let trace_validate_cmd =
  let run path =
    let text =
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Pytfhe_util.Json.parse text with
    | exception _ ->
      Format.printf "%s: INVALID (not JSON)@." path;
      exit 1
    | json -> (
      match Trace.validate_chrome json with
      | Ok () -> Format.printf "%s: valid Chrome trace@." path
      | Error msg ->
        Format.printf "%s: INVALID (%s)@." path msg;
        exit 1)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Chrome trace_event JSON written by --trace.") in
  Cmd.v
    (Cmd.info "trace-validate"
       ~doc:"Check that a file is a well-formed Chrome trace (spans sorted, non-overlapping per track)")
    Term.(const run $ path)

(* ------------------------------------------------------------------ *)
(* FHE-as-a-service: serve / submit                                    *)
(* ------------------------------------------------------------------ *)

(* Round-trippable executor names shared with Server.exec_backend_name,
   so `pytfhe serve --backend dist:4` prints back exactly "dist:4". *)
let exec_conv =
  let parse s =
    match Server.exec_backend_of_name s with Ok b -> Ok b | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun fmt b -> Format.pp_print_string fmt (Server.exec_backend_name b))

let serve_cmd =
  let run host port backend batch max_active max_queue =
    if batch < 1 then failwith "--batch must be >= 1";
    let config =
      { Service.default_config with Service.host; port; backend; max_active; max_queue }
    in
    let opts = { Service.default_opts with Exec_opts.batch = Some batch } in
    let stats =
      Service.serve ~opts ~config
        ~ready:(fun p ->
          Format.printf "pytfhe service listening on %s:%d (backend %s, batch %d)@." host p
            (Server.exec_backend_name backend)
            batch;
          Format.print_flush ())
        ()
    in
    Format.printf
      "service stopped: %d keysets, %d sessions, %d/%d requests completed/failed, %d launches, batch fill %.2f@."
      stats.Service.keysets_registered stats.Service.sessions_opened
      stats.Service.requests_completed stats.Service.requests_failed
      stats.Service.batch_launches stats.Service.batch_fill
  in
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.") in
  let port = Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 picks an ephemeral port, printed on startup).") in
  let backend =
    Arg.(value & opt exec_conv Server.Cpu
         & info [ "backend" ] ~docv:"BACKEND"
             ~doc:"Executor: $(b,cpu) (in-process cross-request batch scheduler), \
                   $(b,par)/$(b,par:N) or $(b,dist)/$(b,dist:N) (pass-through, one request \
                   at a time through that executor).")
  in
  let batch = Arg.(value & opt int 8 & info [ "batch" ] ~docv:"N" ~doc:"Batched-bootstrap capacity of the cross-request scheduler.") in
  let max_active = Arg.(value & opt int 32 & info [ "max-active" ] ~docv:"N" ~doc:"Concurrently executing request bound.") in
  let max_queue = Arg.(value & opt int 256 & info [ "max-queue" ] ~docv:"N" ~doc:"Admission queue bound (excess submissions fail busy).") in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent multi-tenant FHE service (register keysets, submit programs; \
             see docs/service.md)")
    Term.(const run $ host $ port $ backend $ batch $ max_active $ max_queue)

let submit_cmd =
  let run w host port client_id seed count shutdown =
    if count < 1 then failwith "--count must be >= 1";
    if w.W.heavy then failwith "workload too large for real encrypted execution; use a light one";
    let rng = Pytfhe_util.Rng.create ~seed () in
    Format.printf "generating keys (test parameters)...@.";
    let client, cloud = Client.keygen ~params:Pytfhe_tfhe.Params.test ~seed () in
    let client_id = match client_id with Some id -> id | None -> Client.client_id client in
    let compiled = Pipeline.compile ~name:w.W.name (w.W.circuit ()) in
    let n_in = Pytfhe_circuit.Netlist.input_count compiled.Pipeline.netlist in
    let c = Service_client.connect ~host ~port () in
    Fun.protect ~finally:(fun () -> Service_client.close c) @@ fun () ->
    Service_client.register c ~client_id cloud;
    let session = Service_client.open_session c ~client_id Pytfhe_tfhe.Params.test in
    Format.printf "registered %s, session %d; submitting %d x %s (%d gates)...@." client_id
      session count w.W.name compiled.Pipeline.stats.Stats.gates;
    let jobs =
      Array.init count (fun i ->
          let ins = Array.init n_in (fun _ -> Pytfhe_util.Rng.bool rng) in
          let cts = Client.encrypt_bits client ins in
          let req =
            Service_client.submit c ~session
              ~name:(Printf.sprintf "%s#%d" w.W.name i)
              ~program:compiled.Pipeline.binary ~inputs:cts
          in
          (req, ins))
    in
    let ok = ref true in
    Array.iter
      (fun (req, ins) ->
        match Service_client.await c req with
        | Service_client.Done { outputs; queue_delay; exec_wall; bootstraps } ->
          let bits = Client.decrypt_bits client outputs in
          let expected = Pytfhe_backend.Plain_eval.run compiled.Pipeline.netlist ins in
          let m = List.for_all2 (fun (_, e) g -> e = g) expected (Array.to_list bits) in
          if not m then ok := false;
          Format.printf "request %d: %d bootstraps, %.3fs queued + %.3fs exec, outputs %s@."
            req bootstraps queue_delay exec_wall
            (if m then "MATCH plaintext reference" else "MISMATCH")
        | Service_client.Failed { code; message } ->
          ok := false;
          Format.printf "request %d: FAILED (%s: %s)@." req
            (Service.string_of_error_code code)
            message)
      jobs;
    if shutdown then begin
      Format.printf "sending shutdown@.";
      Service_client.shutdown c
    end;
    if not !ok then exit 1
  in
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Service address.") in
  let port = Arg.(required & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc:"Service port.") in
  let client_id =
    Arg.(value & opt (some string) None
         & info [ "client-id" ] ~docv:"ID"
             ~doc:"Tenant identity to register the cloud keyset under (default: a digest of \
                   the generated secret keyset).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed (keys and inputs).") in
  let count = Arg.(value & opt int 1 & info [ "count" ] ~docv:"N" ~doc:"Submit $(docv) independent copies (exercises cross-request batching).") in
  let shutdown = Arg.(value & flag & info [ "shutdown" ] ~doc:"Shut the server down after the replies arrive.") in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Register a keyset with a running service, submit encrypted workload requests and \
             verify the decrypted replies")
    Term.(const run $ workload_arg $ host $ port $ client_id $ seed $ count $ shutdown)

let decrypt_cmd =
  let run secret input =
    let client = Client.load secret in
    let cts = Pytfhe_core.Ciphertext_file.read input in
    let bits = Client.decrypt_bits client cts in
    let s = String.init (Array.length bits) (fun i -> if bits.(i) then '1' else '0') in
    Format.printf "%s@." s
  in
  let secret = Arg.(required & opt (some file) None & info [ "secret" ] ~docv:"FILE" ~doc:"Secret keyset.") in
  let input = Arg.(required & opt (some file) None & info [ "input" ] ~docv:"FILE" ~doc:"Ciphertext bundle.") in
  Cmd.v (Cmd.info "decrypt" ~doc:"Decrypt a ciphertext bundle with the secret key") Term.(const run $ secret $ input)

let () =
  (* In a process spawned by Dist_eval this serves gates and never returns. *)
  Pytfhe_backend.Dist_eval.worker_entry ();
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "pytfhe" ~version:"1.0.0" ~doc:"End-to-end TFHE compilation and execution framework" in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            list_cmd; compile_cmd; disasm_cmd; stat_cmd; estimate_cmd; run_cmd; verilog_cmd; json_cmd; dot_cmd; vcd_cmd; equiv_cmd;
            synth_cmd; keygen_cmd;
            encrypt_cmd; eval_cmd; decrypt_cmd; trace_validate_cmd; serve_cmd; submit_cmd;
          ]))

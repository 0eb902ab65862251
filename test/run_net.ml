(* Run a netlist through an executor: assemble it and feed the binary as
   one chunk with no segment limit, so the executed waves are exactly the
   netlist's levelized waves (what [Server.run] does with a compiled
   program). *)

module Binary = Pytfhe_circuit.Binary
open Pytfhe_backend

let source net = Binary.source_of_bytes (Binary.assemble net)

let cpu ?opts ck net cts =
  Stream_exec.run_encrypted_stream ?opts ~window:max_int ck (source net) cts

let par ?workers ?opts ck net cts =
  Par_eval.run_stream ?workers ?opts ~window:max_int ck (source net) cts

let dist ?opts cfg ck net cts = Dist_eval.run_stream ?opts ~window:max_int cfg ck (source net) cts

(* The in-order scalar reference every wave executor is compared against. *)
let reference ck net cts = Stream_exec.run_encrypted ck (Binary.assemble net) cts

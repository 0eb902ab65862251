(* Gate dispatch for the encrypted executors: which TFHE kernel each IR
   gate type runs, plus the sequential executor's stats record. *)

module Gate = Pytfhe_circuit.Gate
open Pytfhe_tfhe

type stats = {
  bootstraps_executed : int;
  nots_executed : int;
  wall_time : float;
  wave_wall : float array;
  wave_width : int array;
  batch_size : int;
  batch_launches : int;
  bsk_bytes_streamed : int;
  ks_bytes_streamed : int;
}

let gate_of g =
  match g with
  | Gate.Nand -> Gates.nand_gate
  | Gate.And -> Gates.and_gate
  | Gate.Or -> Gates.or_gate
  | Gate.Nor -> Gates.nor_gate
  | Gate.Xnor -> Gates.xnor_gate
  | Gate.Xor -> Gates.xor_gate
  | Gate.Not -> fun ck a _ -> Gates.not_gate ck a
  | Gate.Andny -> Gates.andny_gate
  | Gate.Andyn -> Gates.andyn_gate
  | Gate.Orny -> Gates.orny_gate
  | Gate.Oryn -> Gates.oryn_gate

let apply_gate ctx g a b =
  match g with
  | Gate.Nand -> Gates.nand_gate_in ctx a b
  | Gate.And -> Gates.and_gate_in ctx a b
  | Gate.Or -> Gates.or_gate_in ctx a b
  | Gate.Nor -> Gates.nor_gate_in ctx a b
  | Gate.Xnor -> Gates.xnor_gate_in ctx a b
  | Gate.Xor -> Gates.xor_gate_in ctx a b
  | Gate.Not -> Lwe.neg a
  | Gate.Andny -> Gates.andny_gate_in ctx a b
  | Gate.Andyn -> Gates.andyn_gate_in ctx a b
  | Gate.Orny -> Gates.orny_gate_in ctx a b
  | Gate.Oryn -> Gates.oryn_gate_in ctx a b

(* The linear phase combination of a bootstrapped gate, as data — what the
   batched runners feed the key-streaming kernel.  [Not] has no bootstrap,
   so no plan. *)
let plan_of g =
  match g with
  | Gate.Nand -> Gates.nand_plan
  | Gate.And -> Gates.and_plan
  | Gate.Or -> Gates.or_plan
  | Gate.Nor -> Gates.nor_plan
  | Gate.Xnor -> Gates.xnor_plan
  | Gate.Xor -> Gates.xor_plan
  | Gate.Andny -> Gates.andny_plan
  | Gate.Andyn -> Gates.andyn_plan
  | Gate.Orny -> Gates.orny_plan
  | Gate.Oryn -> Gates.oryn_plan
  | Gate.Not -> invalid_arg "Tfhe_eval.plan_of: Not is not a bootstrapped gate"

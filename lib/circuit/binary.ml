module Wire = Pytfhe_util.Wire

type instruction =
  | Header of { gate_total : int }
  | Input_decl of { index : int }
  | Gate_inst of { gate : Gate.t; in0 : int; in1 : int }
  | Lut_inst of { table : int; ins : int array }
  | Output_decl of { index : int }

let all_ones_62 = 0x3FFFFFFFFFFFFFFF
let tag_header = 0x0
let tag_input = 0xF
let tag_output = 0x3
let tag_lut = 0xC

(* LUT record B-field layout: arity in bits 0–1, table in 2–9, second and
   third operands in 10–35 and 36–61 (26 bits each); in0 rides the A field. *)
let lut_operand_mask = 0x3FFFFFF

let encode_words a b tag =
  let b64 = Int64.of_int b in
  let lo = Int64.logor (Int64.shift_left b64 4) (Int64.of_int (tag land 0xF)) in
  let hi =
    Int64.logor (Int64.shift_left (Int64.of_int a) 2) (Int64.shift_right_logical b64 60)
  in
  (lo, hi)

let decode_words lo hi =
  let tag = Int64.to_int (Int64.logand lo 0xFL) in
  let b =
    Int64.to_int
      (Int64.logand
         (Int64.logor (Int64.shift_right_logical lo 4) (Int64.shift_left hi 60))
         0x3FFFFFFFFFFFFFFFL)
  in
  let a = Int64.to_int (Int64.logand (Int64.shift_right_logical hi 2) 0x3FFFFFFFFFFFFFFFL) in
  (a, b, tag)

let instruction_words = function
  | Header { gate_total } -> encode_words 0 gate_total tag_header
  | Input_decl { index } -> encode_words all_ones_62 index tag_input
  | Gate_inst { gate; in0; in1 } -> encode_words in0 in1 (Gate.to_code gate)
  | Lut_inst { table; ins } ->
    let arity = Array.length ins in
    let in1 = if arity > 1 then ins.(1) else 0 in
    let in2 = if arity > 2 then ins.(2) else 0 in
    encode_words ins.(0) (arity lor (table lsl 2) lor (in1 lsl 10) lor (in2 lsl 36)) tag_lut
  | Output_decl { index } -> encode_words all_ones_62 index tag_output

let decode_lut a b =
  (* Malformed LUT records are data corruption, not programming errors:
     they raise {!Wire.Corrupt} so executors reject hostile streams
     gracefully. *)
  let corrupt msg = raise (Wire.Corrupt ("Binary: " ^ msg)) in
  let arity = b land 0x3 in
  let table = (b lsr 2) land 0xFF in
  let in1 = (b lsr 10) land lut_operand_mask in
  let in2 = (b lsr 36) land lut_operand_mask in
  if arity = 0 then corrupt "LUT record with arity 0";
  if table >= 1 lsl (1 lsl arity) then
    corrupt (Printf.sprintf "LUT table %#x too wide for arity %d" table arity);
  if arity < 3 && in2 <> 0 then corrupt "nonzero reserved operand bits in LUT record";
  if arity < 2 && in1 <> 0 then corrupt "nonzero reserved operand bits in LUT record";
  let ins = Array.sub [| a; in1; in2 |] 0 arity in
  Lut_inst { table; ins }

let instruction_of_words lo hi =
  let a, b, tag = decode_words lo hi in
  if tag = tag_header && a = 0 then Header { gate_total = b }
  else if tag = tag_input && a = all_ones_62 then Input_decl { index = b }
  else if tag = tag_output && a = all_ones_62 then Output_decl { index = b }
  else if tag = tag_lut then decode_lut a b
  else
    match Gate.of_code tag with
    | Some gate -> Gate_inst { gate; in0 = a; in1 = b }
    | None -> failwith (Printf.sprintf "Binary.disassemble: unknown instruction tag %d" tag)

let pp_instruction fmt = function
  | Header { gate_total } -> Format.fprintf fmt "header  gates=%d" gate_total
  | Input_decl { index } -> Format.fprintf fmt "input   -> %d" index
  | Gate_inst { gate; in0; in1 } -> Format.fprintf fmt "%-7s %d, %d" (Gate.name gate) in0 in1
  | Lut_inst { table; ins } ->
    Format.fprintf fmt "lut%d/%#-4x %s" (Array.length ins) table
      (String.concat ", " (Array.to_list (Array.map string_of_int ins)))
  | Output_decl { index } -> Format.fprintf fmt "output  <- %d" index

let emit buf inst =
  let lo, hi = instruction_words inst in
  Buffer.add_int64_le buf lo;
  Buffer.add_int64_le buf hi

(* A streamed binary's header cannot know the final gate count up front, so
   it carries this sentinel; executors treat it as "unknown" and skip the
   gate-budget check.  Buffered producers backpatch the real count. *)
let streamed_gate_total = all_ones_62

let patch_header bytes gate_total =
  if Bytes.length bytes < 16 then failwith "Binary.patch_header: no header instruction";
  let lo, hi = instruction_words (Header { gate_total }) in
  Bytes.set_int64_le bytes 0 lo;
  Bytes.set_int64_le bytes 8 hi

(* ------------------------------------------------------------------ *)
(* Streaming assembler                                                 *)
(* ------------------------------------------------------------------ *)

(* Emits the instruction stream node by node, in netlist id order, as
   construction proceeds — peak memory is one output chunk, not the whole
   binary.  Index assignment is identical to the one-shot [assemble] for
   input-first netlists (the only kind the frontends build): inputs and
   gates take consecutive stream indices in id order, and a constant
   materialises at its own id slot as XOR/XNOR over the first input.
   Nodes created before any input exists are deferred and flushed when the
   first input arrives; a netlist whose outputs never gain an index (live
   constants, no inputs) is rejected at [finish]. *)
module Emit = struct
  type t = {
    net : Netlist.t;
    write : bytes -> unit;
    chunk : int;  (* flush threshold in bytes *)
    buf : Buffer.t;
    mutable index_of : int array;  (* netlist id -> stream index; -1 unassigned *)
    mutable next : int;  (* next stream index *)
    mutable first_input : int;  (* stream index of the first input; -1 until seen *)
    mutable deferred : int list;  (* reversed ids awaiting the first input *)
    mutable gate_total : int;
    mutable bytes_emitted : int;
    mutable finished : bool;
  }

  let create ?(chunk = 1 lsl 16) ~write net =
    let e =
      {
        net;
        write;
        chunk = max chunk 16;
        buf = Buffer.create 4096;
        index_of = Array.make 1024 (-1);
        next = 1;
        first_input = -1;
        deferred = [];
        gate_total = 0;
        bytes_emitted = 0;
        finished = false;
      }
    in
    emit e.buf (Header { gate_total = streamed_gate_total });
    e

  let maybe_flush e =
    if Buffer.length e.buf >= e.chunk then begin
      e.bytes_emitted <- e.bytes_emitted + Buffer.length e.buf;
      e.write (Buffer.to_bytes e.buf);
      Buffer.clear e.buf
    end

  let index_of e id =
    if id < Array.length e.index_of then e.index_of.(id) else -1

  let assign e id =
    let n = Array.length e.index_of in
    if id >= n then begin
      let grown = Array.make (max (2 * n) (id + 1)) (-1) in
      Array.blit e.index_of 0 grown 0 n;
      e.index_of <- grown
    end;
    let index = e.next in
    e.index_of.(id) <- index;
    e.next <- index + 1;
    index

  let rec note e id =
    if e.finished then invalid_arg "Binary.Emit.note: emitter already finished";
    match Netlist.kind e.net id with
    | Netlist.Input _ ->
      let index = assign e id in
      emit e.buf (Input_decl { index });
      maybe_flush e;
      if e.first_input < 0 then begin
        e.first_input <- index;
        let pending = List.rev e.deferred in
        e.deferred <- [];
        List.iter (note e) pending
      end
    | Netlist.Const v ->
      if e.first_input < 0 then e.deferred <- id :: e.deferred
      else begin
        (* XOR(i,i) = 0, XNOR(i,i) = 1. *)
        ignore (assign e id);
        let g = if v then Gate.Xnor else Gate.Xor in
        emit e.buf (Gate_inst { gate = g; in0 = e.first_input; in1 = e.first_input });
        e.gate_total <- e.gate_total + 1;
        maybe_flush e
      end
    | Netlist.Gate (g, a, b) ->
      if index_of e a < 0 || index_of e b < 0 then e.deferred <- id :: e.deferred
      else begin
        let in0 = index_of e a and in1 = index_of e b in
        ignore (assign e id);
        emit e.buf (Gate_inst { gate = g; in0; in1 });
        e.gate_total <- e.gate_total + 1;
        maybe_flush e
      end
    | Netlist.Lut { table; ins } ->
      if Array.exists (fun a -> index_of e a < 0) ins then e.deferred <- id :: e.deferred
      else begin
        let mapped = Array.map (fun a -> index_of e a) ins in
        Array.iteri
          (fun j idx ->
            if j > 0 && idx > lut_operand_mask then
              failwith "Binary.assemble: LUT operand index exceeds the 26-bit record field")
          mapped;
        ignore (assign e id);
        emit e.buf (Lut_inst { table; ins = mapped });
        e.gate_total <- e.gate_total + 1;
        maybe_flush e
      end

  let attach e = Netlist.set_observer e.net (note e)

  let finish e =
    if e.finished then invalid_arg "Binary.Emit.finish: emitter already finished";
    e.finished <- true;
    (* Deferred gates reference constants in an input-less netlist; deferred
       constants are fatal only when something observable needs them. *)
    let deferred_live =
      List.exists (fun id -> match Netlist.kind e.net id with Netlist.Const _ -> false | _ -> true)
        e.deferred
      || List.exists (fun (_, id) -> index_of e id < 0) (Netlist.outputs e.net)
    in
    if deferred_live then
      failwith "Binary.assemble: live constants but no inputs to derive them from";
    List.iter
      (fun (_, id) ->
        let index = index_of e id in
        if index < 0 then failwith "Binary.assemble: output references an unemitted node";
        emit e.buf (Output_decl { index }))
      (Netlist.outputs e.net);
    e.bytes_emitted <- e.bytes_emitted + Buffer.length e.buf;
    e.write (Buffer.to_bytes e.buf);
    Buffer.clear e.buf;
    e.gate_total

  let bytes_emitted e = e.bytes_emitted + Buffer.length e.buf
  let gate_total e = e.gate_total
end

let assemble net =
  let out = Buffer.create 1024 in
  let e = Emit.create ~chunk:max_int ~write:(Buffer.add_bytes out) net in
  for id = 0 to Netlist.node_count net - 1 do
    Emit.note e id
  done;
  let gate_total = Emit.finish e in
  let bytes = Buffer.to_bytes out in
  patch_header bytes gate_total;
  bytes

let instruction_count bytes =
  let len = Bytes.length bytes in
  if len mod 16 <> 0 then failwith "Binary: truncated instruction stream";
  len / 16

let disassemble bytes =
  let count = instruction_count bytes in
  if count = 0 then failwith "Binary.disassemble: empty stream";
  let insts =
    List.init count (fun i ->
        instruction_of_words (Bytes.get_int64_le bytes (16 * i)) (Bytes.get_int64_le bytes ((16 * i) + 8)))
  in
  (match insts with
  | Header _ :: _ -> ()
  | _ -> failwith "Binary.disassemble: missing header instruction");
  insts

(* Incremental netlist rebuilder over an instruction stream.  Stream indices
   are sequential from 1, so the index → id table is a dense growable vector
   rather than a hashtable — O(1) with no boxing at multi-million-gate
   scale. *)
module Parser = struct
  module Growable = Pytfhe_util.Growable

  type t = {
    net : Netlist.t;
    table : Growable.t;  (* position index-1 holds the netlist id *)
    mutable saw_header : bool;
    mutable n_inputs : int;
    mutable n_outputs : int;
  }

  let create () =
    {
      net = Netlist.create ~hash_consing:false ~fold_constants:false ();
      table = Growable.create ~capacity:1024 ();
      saw_header = false;
      n_inputs = 0;
      n_outputs = 0;
    }

  let resolve p index =
    if index >= 1 && index <= Growable.length p.table then Growable.get p.table (index - 1)
    else failwith (Printf.sprintf "Binary.parse: forward or dangling reference %d" index)

  let feed p inst =
    (match inst with
    | Header _ -> ()
    | _ ->
      if not p.saw_header then failwith "Binary.parse: missing header instruction");
    match inst with
    | Header _ -> p.saw_header <- true
    | Input_decl { index } ->
      if index <> Growable.length p.table + 1 then
        failwith "Binary.parse: non-sequential input index";
      let id = Netlist.input p.net (Printf.sprintf "in%d" p.n_inputs) in
      p.n_inputs <- p.n_inputs + 1;
      Growable.push p.table id
    | Gate_inst { gate; in0; in1 } ->
      Growable.push p.table (Netlist.gate p.net gate (resolve p in0) (resolve p in1))
    | Lut_inst { table = lut_table; ins } ->
      let id =
        try Netlist.lut p.net ~table:lut_table (Array.map (resolve p) ins)
        with Invalid_argument msg -> raise (Pytfhe_util.Wire.Corrupt ("Binary.parse: " ^ msg))
      in
      Growable.push p.table id
    | Output_decl { index } ->
      Netlist.mark_output p.net (Printf.sprintf "out%d" p.n_outputs) (resolve p index);
      p.n_outputs <- p.n_outputs + 1

  let finish p =
    if not p.saw_header then failwith "Binary.parse: missing header instruction";
    p.net
end

let parse bytes =
  let p = Parser.create () in
  let count = instruction_count bytes in
  if count = 0 then failwith "Binary.disassemble: empty stream";
  for i = 0 to count - 1 do
    Parser.feed p
      (instruction_of_words (Bytes.get_int64_le bytes (16 * i)) (Bytes.get_int64_le bytes ((16 * i) + 8)))
  done;
  Parser.finish p

let write_file path bytes =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc bytes)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let bytes = Bytes.create len in
      really_input ic bytes 0 len;
      bytes)

let iter bytes f =
  let count = instruction_count bytes in
  if count = 0 then failwith "Binary.iter: empty stream";
  for i = 0 to count - 1 do
    f (instruction_of_words (Bytes.get_int64_le bytes (16 * i)) (Bytes.get_int64_le bytes ((16 * i) + 8)))
  done

let iter_source read f =
  (* Chunks arrive with arbitrary framing; a partial 16-byte instruction is
     carried across chunk boundaries in [pending]. *)
  let pending = Bytes.create 16 in
  let fill = ref 0 in
  let any = ref false in
  let feed chunk =
    let len = Bytes.length chunk in
    let pos = ref 0 in
    if !fill > 0 then begin
      let take = min (16 - !fill) len in
      Bytes.blit chunk 0 pending !fill take;
      fill := !fill + take;
      pos := take;
      if !fill = 16 then begin
        f (instruction_of_words (Bytes.get_int64_le pending 0) (Bytes.get_int64_le pending 8));
        any := true;
        fill := 0
      end
    end;
    while len - !pos >= 16 do
      f (instruction_of_words (Bytes.get_int64_le chunk !pos) (Bytes.get_int64_le chunk (!pos + 8)));
      any := true;
      pos := !pos + 16
    done;
    let rest = len - !pos in
    if rest > 0 then begin
      Bytes.blit chunk !pos pending 0 rest;
      fill := rest
    end
  in
  let rec loop () =
    match read () with
    | Some chunk ->
      feed chunk;
      loop ()
    | None ->
      if !fill <> 0 then failwith "Binary: truncated instruction stream";
      if not !any then failwith "Binary.iter_source: empty stream"
  in
  loop ()

let parse_source read =
  let p = Parser.create () in
  iter_source read (Parser.feed p);
  Parser.finish p

let source_of_bytes bytes =
  let pending = ref (Some bytes) in
  fun () ->
    let chunk = !pending in
    pending := None;
    chunk

let read_source ?(chunk = 1 lsl 16) ic =
  let buf = Bytes.create chunk in
  fun () ->
    let n = input ic buf 0 chunk in
    if n = 0 then None else Some (Bytes.sub buf 0 n)

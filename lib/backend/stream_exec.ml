module Binary = Pytfhe_circuit.Binary
module Gate = Pytfhe_circuit.Gate
module Wire = Pytfhe_util.Wire
module Trace = Pytfhe_obs.Trace
module Gates = Pytfhe_tfhe.Gates
module Lwe = Pytfhe_tfhe.Lwe
module Params = Pytfhe_tfhe.Params

type 'v ops = {
  v_gate : Gate.t -> 'v -> 'v -> 'v;
  v_input : int -> 'v;
  v_lut : arity:int -> table:int -> 'v array -> 'v;
  v_lut_view : 'v -> 'v;
}

let run_insts ?(obs = Trace.null) ops iter_insts =
  (* One pass over the instruction stream; the value table is indexed by
     the sequential gate numbering, so lookups are array reads.  The table
     grows geometrically: the header only declares the gate count, not the
     input count.  Each slot carries the value plus its encoding: LUT cells
     produce lutdom-encoded values, which classic consumers (gates,
     arity-1 LUT cells, outputs) read through [v_lut_view]. *)
  let traced = Trace.enabled obs in
  let t_start = Trace.now obs in
  let table = ref [||] in
  let next = ref 1 in
  let input_ordinal = ref 0 in
  let gate_total = ref (-1) in
  let seen_gates = ref 0 in
  let unary_gates = ref 0 in
  let lut_cells = ref 0 in
  let first = ref true in
  let outputs = ref [] in
  let output_count = ref 0 in
  let ensure index =
    if Array.length !table <= index then begin
      let bigger = Array.make (max (2 * Array.length !table) (index + 16)) None in
      Array.blit !table 0 bigger 0 (Array.length !table);
      table := bigger
    end
  in
  let fetch index =
    if index < 1 || index >= !next then failwith "Stream_exec: reference to an unassigned index";
    match !table.(index) with
    | Some cell -> cell
    | None -> failwith "Stream_exec: reference to an unassigned index"
  in
  let fetch_classic index =
    let v, is_lut = fetch index in
    if is_lut then ops.v_lut_view v else v
  in
  (* A streamed binary's header carries the sentinel instead of a count;
     the gate-budget check only applies to exact headers. *)
  let over_budget () =
    !gate_total <> Binary.streamed_gate_total && !seen_gates > !gate_total
  in
  iter_insts (fun inst ->
      match inst with
      | Binary.Header { gate_total = g } ->
        if not !first then failwith "Stream_exec: duplicate header";
        first := false;
        gate_total := g
      | Binary.Input_decl { index } ->
        if !gate_total < 0 then failwith "Stream_exec: missing header instruction";
        if index <> !next then failwith "Stream_exec: non-sequential input index";
        ensure index;
        !table.(index) <- Some (ops.v_input !input_ordinal, false);
        incr input_ordinal;
        incr next
      | Binary.Gate_inst { gate; in0; in1 } ->
        if !gate_total < 0 then failwith "Stream_exec: missing header instruction";
        incr seen_gates;
        if Gate.is_unary gate then incr unary_gates;
        if over_budget () then
          failwith "Stream_exec: more gates than the header declared";
        ensure !next;
        !table.(!next) <- Some (ops.v_gate gate (fetch_classic in0) (fetch_classic in1), false);
        incr next
      | Binary.Lut_inst { table = tbl; ins } ->
        if !gate_total < 0 then failwith "Stream_exec: missing header instruction";
        incr seen_gates;
        incr lut_cells;
        if over_budget () then
          failwith "Stream_exec: more gates than the header declared";
        let arity = Array.length ins in
        (* The decoder already bounds arity and table; what only the value
           stream can check is the operand encoding: a multi-input cell
           whose operand is not itself a LUT cell would blind-rotate a
           classic ciphertext as if it were lutdom — structurally corrupt,
           rejected before any value is computed.  Arity-1 cells take the
           classic view of whatever they are fed. *)
        let operands =
          if arity = 1 then [| fetch_classic ins.(0) |]
          else
            Array.map
              (fun idx ->
                let v, is_lut = fetch idx in
                if not is_lut then
                  raise
                    (Wire.Corrupt
                       (Printf.sprintf
                          "Stream_exec: lut%d operand %d is not lutdom-encoded" arity idx));
                v)
              ins
        in
        ensure !next;
        !table.(!next) <- Some (ops.v_lut ~arity ~table:tbl operands, true);
        incr next
      | Binary.Output_decl { index } ->
        incr output_count;
        outputs := fetch_classic index :: !outputs);
  if !gate_total < 0 then failwith "Stream_exec: missing header instruction";
  if traced then begin
    (* The stream has no wave structure — the whole single pass is one
       span, with the instruction mix as counters. *)
    let tr = Trace.new_track obs ~name:"stream" in
    Trace.span tr ~cat:"run" ~name:"stream_exec" ~t0:t_start ~t1:(Trace.now obs);
    Trace.counter tr ~name:"instructions"
      (float_of_int (1 + !input_ordinal + !seen_gates + !output_count));
    Trace.counter tr ~name:"inputs" (float_of_int !input_ordinal);
    Trace.counter tr ~name:"bootstraps" (float_of_int (!seen_gates - !unary_gates));
    Trace.counter tr ~name:"nots" (float_of_int !unary_gates);
    Trace.counter tr ~name:"luts" (float_of_int !lut_cells);
    Trace.counter tr ~name:"outputs" (float_of_int !output_count);
    Trace.drain obs
  end;
  Array.of_list (List.rev !outputs)

let run_source ?obs ops read = run_insts ?obs ops (Binary.iter_source read)

(* --- Segmented wave driver ------------------------------------------------

   The one way an encrypted program runs on the cpu, par and dist backends
   and in the service: instructions are consumed as they arrive, but
   bootstrapped work is queued by wave (level = 1 + max operand level
   within the current segment) and handed to a backend [run_wave] callback
   one wave at a time, so batching/parallel backends see the same wave
   structure a levelized netlist would give them.  Once the queued bootstrap count reaches
   [window], the segment is flushed level by level — peak queued work stays
   bounded no matter how large the stream is; with an unbounded window the
   waves are exactly [Levelize.waves].

   NOT gates are noiseless: one whose operand is already computed is
   evaluated inline immediately; one that reads a still-pending wave is
   queued after that wave's parallel phase, in arrival order, exactly like
   [Levelize.waves].

   The per-wave trace probes live here, once for every backend: a [wave]
   span and the standard counter set on the backend's track, the batch
   counter set when the backend batches, and whatever extra counters the
   backend's runner reports for the wave. *)

type pending =
  | P_gate of { gate : Gate.t; in0 : int; in1 : int; dst : int }
  | P_lut of { table : int; ins : int array; dst : int }

type task =
  | T_gate of { gate : Gate.t; a : Lwe.sample; b : Lwe.sample }
  | T_lut of { arity : int; table : int; operands : Lwe.sample array; ins : int array }

type wave_result = {
  results : Lwe.sample array;
  rotations : int;
  counters : (string * int) list;
}

type probe = {
  track : string;
  params : Params.t;
  remote_crypto : bool;
  batch : (int * (unit -> Gates.batch_counters)) option;
}

type wave_stats = {
  segments_run : int;
  waves_run : int;
  bootstraps_run : int;
  nots_run : int;
  wave_widths : int array;
  wave_wall : float array;
}

let run_waves ?(obs = Trace.null) ?(window = 1 lsl 15) probe ~run_wave read inputs =
  if window < 1 then invalid_arg "Stream_exec.run_waves: window must be positive";
  let t_start = Trace.now obs in
  let traced = Trace.enabled obs in
  let ep = Trace.epoch obs in
  let tr = Trace.new_track obs ~name:probe.track in
  if traced then Exec_obs.noise_gauges tr probe.params;
  (* Slot table: value (None while pending), lutdom flag, segment level
     (-1 unassigned, 0 computed, >0 pending in the current segment). *)
  let cap = ref 16 in
  let values = ref (Array.make !cap None) in
  let is_lut = ref (Array.make !cap false) in
  let levels = ref (Array.make !cap (-1)) in
  let ensure index =
    if index >= !cap then begin
      let bigger = max (2 * !cap) (index + 16) in
      let v = Array.make bigger None and l = Array.make bigger false
      and lv = Array.make bigger (-1) in
      Array.blit !values 0 v 0 !cap;
      Array.blit !is_lut 0 l 0 !cap;
      Array.blit !levels 0 lv 0 !cap;
      values := v;
      is_lut := l;
      levels := lv;
      cap := bigger
    end
  in
  let next = ref 1 in
  let input_ordinal = ref 0 in
  let gate_total = ref (-1) in
  let seen_gates = ref 0 in
  let first = ref true in
  let outputs = ref [] in
  let level_of index =
    if index < 1 || index >= !next || !levels.(index) < 0 then
      failwith "Stream_exec: reference to an unassigned index";
    !levels.(index)
  in
  let classic index =
    match !values.(index) with
    | Some v -> if !is_lut.(index) then Gates.lut_to_classic v else v
    | None -> failwith "Stream_exec: reference to an unassigned index"
  in
  let raw index =
    match !values.(index) with
    | Some v -> v
    | None -> failwith "Stream_exec: reference to an unassigned index"
  in
  (* Segment queues, one parallel + one inline list per level (index l-1),
     built in reverse arrival order. *)
  let seg_par = ref (Array.make 8 []) in
  let seg_inl = ref (Array.make 8 []) in
  let seg_depth = ref 0 in
  let seg_boots = ref 0 in
  let seg_ensure l =
    if l > Array.length !seg_par then begin
      let bigger = max (2 * Array.length !seg_par) l in
      let p = Array.make bigger [] and i = Array.make bigger [] in
      Array.blit !seg_par 0 p 0 (Array.length !seg_par);
      Array.blit !seg_inl 0 i 0 (Array.length !seg_inl);
      seg_par := p;
      seg_inl := i
    end
  in
  let segments = ref 0 in
  let waves = ref 0 in
  let boots = ref 0 in
  let nots = ref 0 in
  let widths = ref [] in
  let walls = ref [] in
  let task_of = function
    | P_gate { gate; in0; in1; _ } -> T_gate { gate; a = classic in0; b = classic in1 }
    | P_lut { table; ins; _ } ->
      let arity = Array.length ins in
      let operands =
        if arity = 1 then [| classic ins.(0) |] else Array.map raw ins
      in
      T_lut { arity; table; operands; ins }
  in
  let dst_of = function P_gate { dst; _ } -> dst | P_lut { dst; _ } -> dst in
  let batch_snapshot () =
    match probe.batch with Some (_, counters) when traced -> Some (counters ()) | _ -> None
  in
  let probe_wave w ~t0 ~t1 ~a0 ~c0 ~width ~wave_nots (r : wave_result) =
    Trace.span tr ~cat:"wave" ~name:(Printf.sprintf "wave %d" w) ~t0:(t0 -. ep) ~t1:(t1 -. ep);
    (* A backend whose workers report their own crypto counters (dist ships
       them in DTRC frames, counted where the rotations ran) must not have
       them counted twice here. *)
    if not probe.remote_crypto then
      Exec_obs.crypto_counters tr probe.params ~bootstraps:r.rotations;
    Exec_obs.wave_counters tr ~nots:wave_nots ~width
      ~alloc_words:(Exec_obs.alloc_words () -. a0);
    (match (probe.batch, c0) with
    | Some (cap, counters), Some c0 ->
      let c1 = counters () in
      Exec_obs.batch_wave_counters tr probe.params ~cap
        ~launches:(c1.Gates.batch_launches - c0.Gates.batch_launches)
        ~gates:(c1.Gates.batch_gates - c0.Gates.batch_gates)
        ~bsk_rows:(c1.Gates.bsk_rows - c0.Gates.bsk_rows)
        ~ks_blocks:(c1.Gates.ks_blocks - c0.Gates.ks_blocks)
    | _ -> ());
    List.iter (fun (name, v) -> Trace.counter tr ~name (float_of_int v)) r.counters;
    (* The runner has returned, so any helper domain or worker of the
       backend is idle at its barrier: every per-thread buffer is safe to
       collect. *)
    Trace.drain obs
  in
  let eval_not (in0, dst) =
    !values.(dst) <- Some (Lwe.neg (classic in0));
    !levels.(dst) <- 0;
    incr nots
  in
  let flush () =
    if !seg_depth > 0 then begin
      incr segments;
      for l = 1 to !seg_depth do
        let par = List.rev !seg_par.(l - 1) and inl = List.rev !seg_inl.(l - 1) in
        !seg_par.(l - 1) <- [];
        !seg_inl.(l - 1) <- [];
        if par <> [] then begin
          let w = !waves in
          incr waves;
          let t0 = Unix.gettimeofday () in
          let a0 = if traced then Exec_obs.alloc_words () else 0.0 in
          let c0 = batch_snapshot () in
          let tasks = Array.of_list (List.map task_of par) in
          let r = run_wave tasks in
          if Array.length r.results <> Array.length tasks then
            failwith "Stream_exec: wave runner returned the wrong number of results";
          List.iteri
            (fun i p ->
              let dst = dst_of p in
              !values.(dst) <- Some r.results.(i);
              !levels.(dst) <- 0)
            par;
          List.iter eval_not inl;
          let t1 = Unix.gettimeofday () in
          let width = Array.length tasks in
          boots := !boots + r.rotations;
          widths := width :: !widths;
          walls := (t1 -. t0) :: !walls;
          if traced then probe_wave w ~t0 ~t1 ~a0 ~c0 ~width ~wave_nots:(List.length inl) r
        end
        else List.iter eval_not inl
      done;
      seg_depth := 0;
      seg_boots := 0
    end
  in
  let require_header () =
    if !gate_total < 0 then failwith "Stream_exec: missing header instruction"
  in
  let count_gate () =
    incr seen_gates;
    if !gate_total <> Binary.streamed_gate_total && !seen_gates > !gate_total then
      failwith "Stream_exec: more gates than the header declared"
  in
  let queue_parallel l p =
    seg_ensure l;
    !seg_par.(l - 1) <- p :: !seg_par.(l - 1);
    if l > !seg_depth then seg_depth := l;
    incr seg_boots;
    !levels.(!next) <- l;
    incr next;
    if !seg_boots >= window then flush ()
  in
  Binary.iter_source read (fun inst ->
      match inst with
      | Binary.Header { gate_total = g } ->
        if not !first then failwith "Stream_exec: duplicate header";
        first := false;
        gate_total := g
      | Binary.Input_decl { index } ->
        require_header ();
        if index <> !next then failwith "Stream_exec: non-sequential input index";
        if !input_ordinal >= Array.length inputs then
          invalid_arg "Stream_exec.run_waves: input arity mismatch";
        ensure index;
        !values.(index) <- Some inputs.(!input_ordinal);
        !levels.(index) <- 0;
        incr input_ordinal;
        incr next
      | Binary.Gate_inst { gate; in0; in1 } ->
        require_header ();
        count_gate ();
        ensure !next;
        if Gate.is_unary gate then begin
          let base = level_of in0 in
          if base = 0 then eval_not (in0, !next)
          else begin
            seg_ensure base;
            !seg_inl.(base - 1) <- (in0, !next) :: !seg_inl.(base - 1);
            !levels.(!next) <- base
          end;
          incr next
        end
        else begin
          let la = level_of in0 and lb = level_of in1 in
          queue_parallel (1 + max la lb) (P_gate { gate; in0; in1; dst = !next })
        end
      | Binary.Lut_inst { table; ins } ->
        require_header ();
        count_gate ();
        ensure !next;
        let arity = Array.length ins in
        let base = ref 0 in
        Array.iter
          (fun idx ->
            let l = level_of idx in
            if arity > 1 && not !is_lut.(idx) then
              raise
                (Wire.Corrupt
                   (Printf.sprintf
                      "Stream_exec: lut%d operand %d is not lutdom-encoded" arity idx));
            if l > !base then base := l)
          ins;
        !is_lut.(!next) <- true;
        queue_parallel (1 + !base) (P_lut { table; ins; dst = !next })
      | Binary.Output_decl { index } ->
        require_header ();
        ignore (level_of index);
        outputs := index :: !outputs);
  if !gate_total < 0 then failwith "Stream_exec: missing header instruction";
  if !input_ordinal <> Array.length inputs then
    invalid_arg "Stream_exec.run_waves: input arity mismatch";
  flush ();
  let result = Array.of_list (List.rev_map classic !outputs) in
  let stats =
    {
      segments_run = !segments;
      waves_run = !waves;
      bootstraps_run = !boots;
      nots_run = !nots;
      wave_widths = Array.of_list (List.rev !widths);
      wave_wall = Array.of_list (List.rev !walls);
    }
  in
  if traced then begin
    let tr = Trace.new_track obs ~name:"stream-waves" in
    Trace.span tr ~cat:"run" ~name:"stream_waves" ~t0:t_start ~t1:(Trace.now obs);
    Trace.counter tr ~name:"segments" (float_of_int stats.segments_run);
    Trace.counter tr ~name:"waves" (float_of_int stats.waves_run);
    Trace.drain obs
  end;
  (result, stats)

(* Plaintext LUT cell: lutdom and classic coincide (a bit is a bit), so the
   view is the identity.  The message index m is the MSB-first operand
   word, matching [Netlist.eval] and [Gates.lut2]/[lut3]. *)
let plain_lut ~arity:_ ~table ops =
  let m = Array.fold_left (fun acc b -> (acc lsl 1) lor Bool.to_int b) 0 ops in
  (table lsr m) land 1 = 1

let run_bits bytes ins =
  let ops =
    {
      v_gate = Gate.eval;
      v_input = (fun i -> ins.(i));
      v_lut = plain_lut;
      v_lut_view = Fun.id;
    }
  in
  run_insts ops (Binary.iter bytes)

let run ?(opts = Exec_opts.default) ops bytes =
  Exec_opts.check_scalar_only ~who:"Stream_exec.run" opts;
  run_insts ~obs:opts.Exec_opts.obs ops (Binary.iter bytes)

let run_encrypted ?(opts = Exec_opts.default) cloud bytes cts =
  Exec_opts.check_scalar_only ~who:"Stream_exec.run_encrypted" opts;
  let obs = opts.Exec_opts.obs in
  let ctx = Gates.context cloud in
  let ops =
    {
      v_gate = (fun g a b -> Tfhe_eval.gate_of g cloud a b);
      v_input = (fun i -> cts.(i));
      v_lut = (fun ~arity ~table ops -> Gates.lut_cell_in ctx ~arity ~table ops);
      v_lut_view = Gates.lut_to_classic;
    }
  in
  if not (Trace.enabled obs) then run_insts ops (Binary.iter bytes)
  else begin
    (* Crypto-cost probes ride on a wrapper so the untraced closure stays
       allocation-identical to before. *)
    let boots = ref 0 in
    let counted =
      { ops with
        v_gate =
          (fun g a b ->
            if not (Gate.is_unary g) then incr boots;
            ops.v_gate g a b);
        v_lut =
          (fun ~arity ~table operands ->
            incr boots;
            ops.v_lut ~arity ~table operands);
      }
    in
    let result = run_insts ~obs counted (Binary.iter bytes) in
    let params = cloud.Gates.cloud_params in
    let tr = Trace.new_track obs ~name:"stream-crypto" in
    Exec_obs.noise_gauges tr params;
    Trace.counter tr ~name:"key_switches" (float_of_int !boots);
    Trace.counter tr ~name:"ffts"
      (float_of_int (!boots * Exec_obs.ffts_per_bootstrap params));
    Trace.drain obs;
    result
  end

(* --- Encrypted wave runners ----------------------------------------------

   What a backend's [run_wave] is made of.  A wave splits into its classic
   gates and its LUT cells grouped into rotation units: one unit per
   arity-1 cell, one per distinct multi-input operand tuple — the
   indicators depend only on the operands, so every member table selects
   from one shared blind rotation.  Each part runs scalar through a
   [Gates.context] or in launches of at most [batch] through a
   [Gates.batch_context]; per gate/cell the operation sequence is the same
   either way, so all runners are ciphertext-bit-exact with each other and
   with the in-order [run_encrypted]. *)

type stream_cell =
  | C_sign of { idx : int; table : int; operand : Lwe.sample }
  | C_group of {
      mutable idxs : int list;  (* reversed *)
      mutable tables : int list;  (* reversed, aligned with idxs *)
      arity : int;
      raws : Lwe.sample array;
    }

(* Rotation-sharing key of a multi-input cell: (arity, operand indices). *)
let lut_key ins =
  let get i = if Array.length ins > i then ins.(i) else -1 in
  (Array.length ins, ins.(0), get 1, get 2)

(* Group a wave's LUT tasks by operand tuple, first-appearance order. *)
let stream_lut_cells tasks lut_idx =
  let ds = ref [] in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun i ->
      match tasks.(i) with
      | T_lut { arity = 1; table; operands; _ } ->
        ds := C_sign { idx = i; table; operand = operands.(0) } :: !ds
      | T_lut { arity; table; operands; ins } -> (
        let key = lut_key ins in
        match Hashtbl.find_opt groups key with
        | Some (C_group g) ->
          g.idxs <- i :: g.idxs;
          g.tables <- table :: g.tables
        | Some (C_sign _) -> assert false
        | None ->
          let g = C_group { idxs = [ i ]; tables = [ table ]; arity; raws = operands } in
          Hashtbl.add groups key g;
          ds := g :: !ds)
      | T_gate _ -> assert false)
    lut_idx;
  Array.of_list (List.rev !ds)

let split_wave tasks =
  let gates = ref [] and luts = ref [] in
  for i = Array.length tasks - 1 downto 0 do
    match tasks.(i) with
    | T_gate _ -> gates := i :: !gates
    | T_lut _ -> luts := i :: !luts
  done;
  (Array.of_list !gates, stream_lut_cells tasks !luts)

let run_gates ctx tasks gates out =
  Array.iter
    (fun i ->
      match tasks.(i) with
      | T_gate { gate; a; b } -> out.(i) <- Some (Tfhe_eval.apply_gate ctx gate a b)
      | T_lut _ -> assert false)
    gates

let run_gates_batched bc ~batch ~n tasks gates out =
  let total = Array.length gates in
  let pos = ref 0 in
  while !pos < total do
    let len = min batch (total - !pos) in
    let base = !pos in
    let combined =
      Array.init len (fun k ->
          match tasks.(gates.(base + k)) with
          | T_gate { gate; a; b } -> Gates.combine ~n (Tfhe_eval.plan_of gate) a b
          | T_lut _ -> assert false)
    in
    Array.iteri (fun k v -> out.(gates.(base + k)) <- Some v) (Gates.bootstrap_batch bc combined);
    pos := base + len
  done

let run_cells ctx cells out =
  Array.iter
    (function
      | C_sign { idx; table; operand } -> out.(idx) <- Some (Gates.lut1_in ctx ~table operand)
      | C_group g ->
        let ind = Gates.lut_indicators_in ctx ~arity:g.arity g.raws in
        List.iter2
          (fun idx table ->
            out.(idx) <- Some (Gates.lut_select_in ctx ~msize:(1 lsl g.arity) ~table ind))
          (List.rev g.idxs) (List.rev g.tables))
    cells

let run_cells_batched bc ~batch ~n cells out =
  let total = Array.length cells in
  let pos = ref 0 in
  while !pos < total do
    let len = min batch (total - !pos) in
    let chunk = Array.sub cells !pos len in
    let kinds =
      Array.map
        (function
          | C_sign { table; _ } -> Gates.sign_cell ~table
          | C_group g ->
            Gates.Cell_lut { arity = g.arity; tables = Array.of_list (List.rev g.tables) })
        chunk
    in
    let combined =
      Array.map
        (function
          | C_sign { operand; _ } -> operand
          | C_group g -> Gates.lut_combine ~n ~arity:g.arity g.raws)
        chunk
    in
    let outs = Gates.bootstrap_batch_cells bc kinds combined in
    Array.iteri
      (fun j d ->
        match d with
        | C_sign { idx; _ } -> out.(idx) <- Some outs.(j).(0)
        | C_group g -> List.iteri (fun k i -> out.(i) <- Some outs.(j).(k)) (List.rev g.idxs))
      chunk;
    pos := !pos + len
  done

let collect out = Array.map (function Some v -> v | None -> assert false) out

(* The sequential backend: one scalar or batched runner over the whole
   wave on the calling thread. *)
let run_encrypted_stream ?(opts = Exec_opts.default) ?window cloud read cts =
  let start = Unix.gettimeofday () in
  let p = cloud.Gates.cloud_params in
  let n = p.Params.lwe.Params.n in
  let run_parts, batch =
    match opts.Exec_opts.batch with
    | None ->
      let ctx = Gates.context cloud in
      ((fun tasks gates cells out -> run_gates ctx tasks gates out; run_cells ctx cells out), None)
    | Some b ->
      if b < 1 then invalid_arg "Stream_exec.run_encrypted_stream: batch must be >= 1";
      let bc = Gates.batch_context cloud ~cap:b in
      ( (fun tasks gates cells out ->
          run_gates_batched bc ~batch:b ~n tasks gates out;
          run_cells_batched bc ~batch:b ~n cells out),
        Some (b, bc) )
  in
  let run_wave tasks =
    let gates, cells = split_wave tasks in
    let out = Array.make (Array.length tasks) None in
    run_parts tasks gates cells out;
    { results = collect out; rotations = Array.length gates + Array.length cells; counters = [] }
  in
  let probe =
    {
      track = "cpu";
      params = p;
      remote_crypto = false;
      batch = Option.map (fun (b, bc) -> (b, fun () -> Gates.batch_counters bc)) batch;
    }
  in
  let outputs, ws = run_waves ~obs:opts.Exec_opts.obs ?window probe ~run_wave read cts in
  let c =
    match batch with
    | Some (_, bc) -> Gates.batch_counters bc
    | None -> { Gates.batch_launches = 0; batch_gates = 0; bsk_rows = 0; ks_blocks = 0 }
  in
  ( outputs,
    {
      Tfhe_eval.bootstraps_executed = ws.bootstraps_run;
      nots_executed = ws.nots_run;
      wall_time = Unix.gettimeofday () -. start;
      wave_wall = ws.wave_wall;
      wave_width = ws.wave_widths;
      batch_size = (match batch with Some (b, _) -> b | None -> 0);
      batch_launches = c.Gates.batch_launches;
      bsk_bytes_streamed = c.Gates.bsk_rows * Exec_obs.bsk_row_bytes p;
      ks_bytes_streamed = c.Gates.ks_blocks * Exec_obs.ks_block_bytes p;
    } )

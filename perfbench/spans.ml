type span = { id : int; name : string; parent : int; req : int; t0 : float; t1 : float }

let on = ref false
let next_id = ref 1
let stack : int list ref = ref []
let recorded : span list ref = ref []

let set_enabled b = on := b
let enabled () = !on

let current_parent () = match !stack with p :: _ -> p | [] -> 0

let push ~id ~parent ~req name t0 t1 =
  recorded := { id; name; parent; req; t0; t1 } :: !recorded

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let with_span name f =
  if not !on then f ()
  else begin
    let id = fresh_id () in
    let parent = current_parent () in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      stack := List.tl !stack;
      push ~id ~parent ~req:0 name t0 t1
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let record ?(req = 0) name ~t0 ~t1 =
  if !on then push ~id:(fresh_id ()) ~parent:(current_parent ()) ~req name t0 t1

let spans () = List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) !recorded

let durations name =
  Array.of_list (List.filter_map (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None) (spans ()))

type row = { row_name : string; count : int; total : float; self : float }

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) -> if a <= cb then (acc, Some (ca, Float.max cb b)) else (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let table all =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.t0, s.t1)) all;
  let rows = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      let self = dur -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all children s.id) in
      match Hashtbl.find_opt rows s.name with
      | Some r -> Hashtbl.replace rows s.name { r with count = r.count + 1; total = r.total +. dur; self = r.self +. self }
      | None ->
        order := s.name :: !order;
        Hashtbl.replace rows s.name { row_name = s.name; count = 1; total = dur; self })
    all;
  List.rev_map (Hashtbl.find rows) !order

let write_json path all =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc "%s{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"t0\":%.6f,\"t1\":%.6f}\n"
            (if i = 0 then "" else ",")
            s.id s.name s.parent s.req s.t0 s.t1)
        all;
      output_string oc "]\n")

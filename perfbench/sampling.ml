let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Sampling.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* 1-based nearest rank; the epsilon keeps q * n = 90.000000001 from
   rounding up to rank 91. *)
let rank n q = max 1 (min n (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))))

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Sampling.quantile: no samples";
  if not (q > 0.0 && q <= 1.0) then invalid_arg "Sampling.quantile: q outside (0, 1]";
  (sorted xs).(rank n q - 1)

let beyond n q = if n = 0 then 0 else n - rank n q

let min_beyond = 10

let tail_quantile xs q =
  if beyond (Array.length xs) q >= min_beyond then Some (quantile xs q) else None

let due_times ~t0 ~rate n = Array.init n (fun i -> t0 +. (float_of_int i /. rate))

let open_loop_latency ~due ~replied = Array.mapi (fun i d -> replied.(i) -. d) due

let lateness ~due ~sent = Array.mapi (fun i d -> sent.(i) -. d) due

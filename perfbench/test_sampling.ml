(* Checks of the benchmark's own statistics. *)

module S = Perfbench_lib.Sampling

let close a b = Float.abs (a -. b) < 1e-12

let () =
  assert (S.median [| 3.0; 1.0; 2.0 |] = 2.0);
  assert (S.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.5);
  assert (S.median [| 7.0 |] = 7.0);
  assert (try ignore (S.median [||]); false with Invalid_argument _ -> true);
  (* Nearest rank: 1..100, the 0.9 quantile is sample 90 with 10 beyond. *)
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  assert (S.quantile hundred 0.9 = 90.0);
  assert (S.quantile hundred 0.5 = 50.0);
  assert (S.quantile hundred 1.0 = 100.0);
  assert (S.beyond 100 0.9 = 10);
  assert (S.tail_quantile hundred 0.9 = Some 90.0);
  (* 99 samples leave only 9 beyond the 0.9 position: not reported. *)
  assert (S.beyond 99 0.9 = 9);
  assert (S.tail_quantile (Array.sub hundred 0 99) 0.9 = None);
  assert (S.tail_quantile hundred 0.95 = None);
  assert (S.beyond 1000 0.99 = 10);
  (* Open loop: latency runs from the due time, so a late send and a slow
     reply both count; lateness is the send's delay alone. *)
  let due = S.due_times ~t0:10.0 ~rate:4.0 3 in
  assert (due = [| 10.0; 10.25; 10.5 |]);
  let sent = [| 10.0; 10.4; 10.5 |] and replied = [| 10.1; 10.6; 10.55 |] in
  let lat = S.open_loop_latency ~due ~replied in
  assert (close lat.(0) 0.1 && close lat.(1) 0.35 && close lat.(2) 0.05);
  let late = S.lateness ~due ~sent in
  assert (close late.(0) 0.0 && close late.(1) 0.15 && close late.(2) 0.0);
  print_endline "sampling: ok"

type t = {
  obs : Pytfhe_obs.Trace.sink;
  batch : int option;
}

let default = { obs = Pytfhe_obs.Trace.null; batch = None }

let check_scalar_only ~who t =
  if t.batch <> None then
    invalid_arg
      (who
     ^ ": opts.batch is not supported by this backend (the multiprocess \
        executor batches worker-side, and the in-order instruction-stream \
        executor is scalar by design)")

(* Bounded exponential backoff (see the interface). *)

let cap_s = 0.05

let backoff_s attempt =
  let attempt = max 1 attempt in
  Float.min cap_s (0.004 *. Float.pow 2.0 (float_of_int (attempt - 1)))

let retry ~retries ?(on_retry = ignore) f =
  let rec go attempt =
    match f () with
    | Error (d : Diag.t) when d.Diag.transient && attempt <= retries ->
      on_retry ();
      Unix.sleepf (backoff_s attempt);
      go (attempt + 1)
    | result -> (result, attempt)
  in
  go 1

type t = unit -> float

(* Rebase on the first reading so exported traces start near ts=0
   regardless of epoch; gettimeofday is the finest-grained portable
   source the stdlib offers (mtime-style CLOCK_MONOTONIC needs stubs). *)
let origin = Unix.gettimeofday ()

let monotonic () = (Unix.gettimeofday () -. origin) *. 1e9

let fixed_step ~step_ns () : t =
  let n = ref 0 in
  fun () ->
    let v = float_of_int !n *. step_ns in
    incr n;
    v

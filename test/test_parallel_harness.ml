(** Tests for the domain pool and for determinism of the parallel
    evaluation matrix: results must keep input order, exceptions must
    propagate (first failure by index), and rendered tables must be
    byte-identical whatever the pool size. *)

module DP = Lp_util.Domain_pool
module Exp_common = Lp_experiments.Exp_common
module Exp_tables = Lp_experiments.Exp_tables
module Exp_figures = Lp_experiments.Exp_figures
module Table = Lp_util.Table

let check = Alcotest.check
let fail = Alcotest.fail

(** Run [f] on a fresh pool of [jobs] workers, always shutting it down. *)
let with_pool jobs f =
  let pool = DP.create ~jobs () in
  Fun.protect ~finally:(fun () -> DP.shutdown pool) (fun () -> f pool)

let inputs = List.init 200 (fun i -> i)

(* mix cheap and heavier elements so completion order actually scrambles *)
let work x =
  let rounds = if x mod 7 = 0 then 5000 else 50 in
  let acc = ref x in
  for _ = 1 to rounds do
    acc := (!acc * 31 + 7) mod 1_000_003
  done;
  !acc

let test_map_preserves_order () =
  let expected = List.map work inputs in
  with_pool 4 (fun pool ->
      check
        Alcotest.(list int)
        "jobs=4" expected
        (DP.parallel_map ~pool work inputs));
  with_pool 1 (fun pool ->
      check
        Alcotest.(list int)
        "jobs=1 degrades to List.map" expected
        (DP.parallel_map ~pool work inputs))

let test_map_empty_and_singleton () =
  with_pool 3 (fun pool ->
      check Alcotest.(list int) "empty" [] (DP.parallel_map ~pool work []);
      check
        Alcotest.(list int)
        "singleton" [ work 9 ]
        (DP.parallel_map ~pool work [ 9 ]))

let test_exception_propagates () =
  with_pool 4 (fun pool ->
      match
        DP.parallel_map ~pool
          (fun x -> if x = 37 then failwith "boom-37" else work x)
          inputs
      with
      | _ -> fail "expected Failure"
      | exception Failure msg -> check Alcotest.string "message" "boom-37" msg)

let test_first_failure_by_index () =
  (* several elements fail; the caller must see the lowest-index one
     regardless of which domain finished first *)
  with_pool 4 (fun pool ->
      match
        DP.parallel_map ~pool
          (fun x ->
            if x mod 10 = 3 then failwith (Printf.sprintf "boom-%d" x)
            else work x)
          inputs
      with
      | _ -> fail "expected Failure"
      | exception Failure msg -> check Alcotest.string "lowest index" "boom-3" msg)

let test_parallel_iter_runs_all () =
  let hits = Array.make 64 0 in
  let m = Mutex.create () in
  with_pool 4 (fun pool ->
      DP.parallel_iter ~pool
        (fun i ->
          Mutex.lock m;
          hits.(i) <- hits.(i) + 1;
          Mutex.unlock m)
        (List.init 64 (fun i -> i)));
  Array.iteri
    (fun i n -> if n <> 1 then Alcotest.failf "slot %d hit %d times" i n)
    hits

(** Render an experiment's table with the default pool pinned to [jobs],
    from a cold cache. *)
let render_with ~jobs (run : unit -> Table.t) : string =
  DP.set_default_jobs jobs;
  Exp_common.clear_cache ();
  Fun.protect
    ~finally:(fun () -> DP.set_default_jobs 1)
    (fun () -> Table.render (run ()))

let test_run_matrix_deterministic_t1 () =
  let seq = render_with ~jobs:1 Exp_tables.t1 in
  let par = render_with ~jobs:4 Exp_tables.t1 in
  check Alcotest.string "T1 byte-identical" seq par

let test_run_matrix_deterministic_f2 () =
  let seq = render_with ~jobs:1 Exp_figures.f2 in
  let par = render_with ~jobs:4 Exp_figures.f2 in
  check Alcotest.string "F2 byte-identical" seq par

(* the matrix memo keeps every cell until the process exits, so a cell
   must not pin its program's final shared memory, which no table reads *)
let test_cell_drops_shared_memory () =
  let w = Lp_workloads.Suite.find_exn "fir" in
  match
    Exp_common.result_of
      (Exp_common.job w ~config:"baseline" Lowpower.Compile.baseline)
  with
  | Error d -> Alcotest.failf "fir/baseline: %s" (Lp_util.Diag.to_string d)
  | Ok r ->
    check Alcotest.int "final shared arrays" 0
      (Hashtbl.length r.Exp_common.outcome.Lp_sim.Sim.shared_final)

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
    Alcotest.test_case "map empty/singleton" `Quick test_map_empty_and_singleton;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "first failure by index" `Quick
      test_first_failure_by_index;
    Alcotest.test_case "parallel_iter runs all" `Quick
      test_parallel_iter_runs_all;
    Alcotest.test_case "run_matrix T1 jobs=4 == jobs=1" `Slow
      test_run_matrix_deterministic_t1;
    Alcotest.test_case "run_matrix F2 jobs=4 == jobs=1" `Slow
      test_run_matrix_deterministic_f2;
    Alcotest.test_case "matrix cell drops final shared memory" `Quick
      test_cell_drops_shared_memory;
  ]

(** The [tune-search] workload: [Tune.run] over [Tune.default_workloads]
    with a fixed budget, evaluations fanned over a [Domain_pool] of
    [nproc] domains.  One op is one [Tune.run] followed by applying each
    best schedule (compile and simulate it, as [lpcc run --passes]
    would); the applied results are checked against the committed
    expected results, so a schedule that changes what the program
    computes fails the op.  Ops cycle through the searches of tune seeds
    1 to [cycle], in an order drawn from the run's seed: every cycle, and
    every run, does the same work over several search paths, and the
    first cycle makes the quality metrics. *)

open Common
module Tune = Lp_tune.Tune
module Pipeline = Lowpower.Pipeline
module Pool = Lp_util.Domain_pool
module Obs = Lp_obs.Obs
module Suite = Lp_workloads.Suite
module Workload = Lp_workloads.Workload

let budget = 20
let cycle = 4

(** The search seed of op [i] of a run of seed [seed]. *)
let op_seed ~seed =
  let order = Array.of_list (shuffle ~seed (List.init cycle succ)) in
  fun i -> order.(i mod cycle)

let workloads () = List.map Suite.find_exn Tune.default_workloads

(** The apply ops of a tune result: each workload under its best spec. *)
let apply_ops expected (s : Tune.summary) =
  List.map
    (fun (r : Tune.workload_result) ->
      let w = Suite.find_exn r.Tune.tw_workload in
      let pipeline = Result.get_ok (Pipeline.parse r.Tune.tw_best_spec) in
      {
        label = w.Workload.name ^ "@" ^ r.Tune.tw_best_spec;
        source = w.Workload.source;
        machine = Machine.generic ();
        config = "tuned";
        opts = Compile.Options.update ~pipeline Compile.baseline;
        globals = w.Workload.check_globals;
        expect = Result (List.assoc w.Workload.name expected);
      })
    s.Tune.t_workloads

(** One op: the search, then the apply step. *)
type op_run = {
  tune : (Tune.summary, string) result;
  applied : (op * summary) list;
  op_s : float;
}

(** Each best schedule is applied this many times per op. *)
let apply_repeats = 3

(** Host times are scaled to the reference speed: the search by the
    probes on every domain before and after it, each application of a
    schedule by the probes on either side of it. *)
let one_op ?ctx ~pool ~seed expected =
  let cfg = Tune.default_config ~budget ~seed () in
  let p0 = probe_all (Pool.jobs pool) in
  let t0 = now () in
  match Tune.run ?ctx ~pool cfg (workloads ()) with
  | Error d -> { tune = Error d.Diag.code; applied = []; op_s = now () -. t0 }
  | Ok s ->
    let search_s = now () -. t0 in
    let f = speed p0 (probe_all (Pool.jobs pool)) in
    let ops = apply_ops expected s in
    let (applied, _) =
      List.fold_left
        (fun (acc, p) op ->
          let r = run_op op in
          let p' = probe () in
          ((op, scaled (speed p p') r) :: acc, p'))
        ([], probe ())
        (List.concat (List.init apply_repeats (fun _ -> ops)))
    in
    let applied = List.rev applied in
    (* op time counts the apply step's compile and simulate only, not
       the digests its check needs *)
    let apply_s = List.fold_left (fun a (_, r) -> a +. r.compile_s +. r.sim_s) 0.0 applied in
    { tune = Ok s; applied; op_s = (search_s *. f) +. apply_s }

let failures_of runs =
  List.concat_map
    (fun r ->
      match r.tune with
      | Error code -> [ "Tune.run: " ^ code ]
      | Ok _ -> List.filter_map (fun (op, s) -> check op s) r.applied)
    runs

let evaluated (s : Tune.summary) =
  List.fold_left (fun a r -> a + r.Tune.tw_evaluated) 0 s.Tune.t_workloads

let summaries runs = List.filter_map (fun r -> Result.to_option r.tune) runs

(** Timing metrics count each search seed's op, and each schedule its
    apply step applies, at its median repeat (the repeats do the same
    work); quality metrics are geomeans over the first cycle. *)
let e2e ~setup_s runs =
  let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs in
  let seeded = List.mapi (fun i r -> (i mod cycle, r)) runs in
  let by_seed = List.map (List.map snd) (group_by ~key:fst seeded) in
  let schedules =
    List.map
      (fun g -> typical (List.map snd g))
      (group_by ~key:fst
         (List.concat_map
            (fun (seed, r) -> List.map (fun (op, s) -> ((seed, op.label), s)) r.applied)
            seeded))
  in
  (* per search seed: the evaluations of its search and its median op time *)
  let seeds =
    List.map
      (fun rs ->
        ( sum (fun s -> float_of_int (evaluated s)) (summaries rs) /. float_of_int (List.length rs),
          median (List.map (fun r -> r.op_s) rs) ))
      by_seed
  in
  let op_times = List.map snd seeds in
  let applied rs = List.concat_map (fun r -> List.map snd r.applied) rs in
  let first = List.filteri (fun i _ -> i < cycle) runs in
  let best_energy =
    List.concat_map
      (fun s -> List.map (fun r -> r.Tune.tw_best.Tune.energy_nj) s.Tune.t_workloads)
      (summaries first)
  in
  [
    m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" (ratio (sum fst seeds) (sum snd seeds));
    m "op_ms_p50" "ms" (ms (median op_times));
    m "op_ms_p95" "ms" (ms (quantile op_times 0.95));
    m "compile_ms_p50" "ms" (ms (median (List.map (fun s -> s.compile_s) schedules)));
    m "sim_minstr_per_s" "Minstr/s"
      (ratio
         (sum (fun s -> float_of_int s.instrs) schedules /. 1e6)
         (sum (fun s -> s.sim_s) schedules));
    m "peak_rss_mb" "MB" (peak_rss_mb ());
    m "sim_energy_gm_nj" "nJ" (geomean best_energy);
    m "sim_time_gm_us" "sim_us"
      (geomean (List.map (fun s -> s.duration_ns /. 1e3) (applied first)));
    m "code_size_gm_instrs" "instrs"
      (geomean (List.map (fun s -> float_of_int s.ir_instrs) (applied first)));
  ]

(** Per-evaluation host time from [Compile]'s own [compile] and
    [simulate] spans: each [compile] span plus the [simulate] span that
    follows it on the same domain. *)
let eval_ms (obs : Obs.t) =
  let wall =
    List.filter
      (fun (s : Obs.span) ->
        s.Obs.sp_pid = Obs.wall_pid && (s.Obs.sp_name = "compile" || s.Obs.sp_name = "simulate"))
      (Obs.spans obs)
  in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (s : Obs.span) ->
      Hashtbl.replace by_tid s.Obs.sp_tid
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.Obs.sp_tid)))
    wall;
  Hashtbl.fold
    (fun _ spans acc ->
      let sorted =
        List.sort (fun (a : Obs.span) b -> compare a.Obs.sp_start_ns b.Obs.sp_start_ns) spans
      in
      let rec pair acc = function
        | (c : Obs.span) :: (s : Obs.span) :: rest
          when c.Obs.sp_name = "compile" && s.Obs.sp_name = "simulate" ->
          pair ((c.Obs.sp_dur_ns +. s.Obs.sp_dur_ns) /. 1e6 :: acc) rest
        | (c : Obs.span) :: rest when c.Obs.sp_name = "compile" ->
          pair (c.Obs.sp_dur_ns /. 1e6 :: acc) rest
        | _ :: rest -> pair acc rest
        | [] -> acc
      in
      pair acc sorted)
    by_tid []

let tune_metrics (s : Tune.summary) evals_ms =
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 s.Tune.t_workloads) in
  let evaluated = sum (fun r -> r.Tune.tw_evaluated) in
  let hits = sum (fun r -> r.Tune.tw_cache_hits) in
  [
    m "tune.candidates" "count" (sum (fun r -> r.Tune.tw_candidates));
    m "tune.evaluated" "count" evaluated;
    m "tune.cache_hit_ratio" "ratio" (ratio hits (hits +. evaluated));
    m "tune.restarts" "count" (sum (fun r -> r.Tune.tw_restarts));
    m "tune.eval_ms_p50" "ms" (median evals_ms);
  ]

let run ~seed ~seconds ~trace : run_result =
  let (expected, _) = Compile_workloads.load_expected () in
  let (pool, setup_s) =
    timed_setups ~n:setup_repeats
      (fun () ->
        let pool = Pool.create ~jobs:(nproc ()) () in
        (* warm-up: every workload under its default schedule, on the pool *)
        Pool.parallel_iter ~pool
          (fun (w : Workload.t) ->
            ignore (Compile.run_result ~machine:(Machine.generic ()) w.Workload.source))
          (workloads ());
        pool)
      Pool.shutdown
  in
  let params =
    [ ("pool_jobs", Json.Num (float_of_int (Pool.jobs pool)));
      ("budget", Json.Num (float_of_int budget));
      ("workloads", Json.List (List.map (fun w -> Json.Str w) Tune.default_workloads)) ]
  in
  let finish r = Pool.shutdown pool; r in
  let op_seed = op_seed ~seed in
  if not trace then begin
    let t0 = now () in
    let rec loop i acc =
      if i > 0 && i mod cycle = 0 && now () -. t0 >= seconds then List.rev acc
      else loop (i + 1) (one_op ~pool ~seed:(op_seed i) expected :: acc)
    in
    let runs = loop 0 [] in
    let failures = failures_of runs in
    let metrics = e2e ~setup_s runs in
    finish
      {
        attempted = List.length runs;
        failed = List.length failures;
        failures = List.filteri (fun i _ -> i < 5) failures;
        metrics;
        deterministic = deterministic_e2e metrics;
        params;
      }
  end
  else begin
    (* ops that record the compiler's spans for three quarters of the
       window; counters come from the first, evaluation times from all *)
    let t0 = now () in
    let rec loop n acc =
      if n > 0 && now () -. t0 >= 0.75 *. seconds then List.rev acc
      else begin
        let obs = Obs.create () in
        let r = one_op ~ctx:(Compile.make_ctx ~obs ()) ~pool ~seed:(op_seed n) expected in
        loop (n + 1) ((r, obs) :: acc)
      end
    in
    let traced = loop 0 [] in
    let (first, _) = List.hd traced in
    (* compile and simulator layers: the applied schedules of the first op
       through the stages, for the rest of the window *)
    let n = List.length first.applied / apply_repeats in
    let plan =
      { Compile_workloads.ops =
          Array.of_list (List.filteri (fun i _ -> i < n) (List.map fst first.applied));
        quality = 0; round = 1; traced = n; programs = n }
    in
    let (layer, staged, problems, _) =
      Compile_workloads.traced ~seconds:(0.25 *. seconds) ~name:"tune-search" plan
    in
    let tune =
      match first.tune with
      | Ok s -> tune_metrics s (List.concat_map (fun (_, obs) -> eval_ms obs) traced)
      | Error _ -> []
    in
    let failures =
      failures_of (List.map fst traced)
      @ List.filter_map (fun (i, s) -> check plan.Compile_workloads.ops.(i) s) staged
      @ problems
    in
    finish
      {
        attempted = List.length traced + List.length staged;
        failed = List.length failures;
        failures = List.filteri (fun i _ -> i < 5) failures;
        metrics = layer @ tune;
        deterministic = Stages.deterministic_layer_metrics (layer @ tune);
        params = params @ [ ("traced_ops", Json.Num (float_of_int (List.length traced))) ];
      }
  end

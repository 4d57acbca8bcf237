(** The two one-op-at-a-time workloads, [suite-zoo] and [gen-compile]:
    a seeded list of compile-then-simulate ops, run through the public
    [Compile] entry points for the measured window.

    - suite-zoo: every bundled program under baseline, pg_dvfs and full
      on each zoo machine.  The seed only orders the ops, so the quality
      metrics (over one full pass) are the same for every seed.
    - gen-compile: fresh [Lp_robust.Gen] programs drawn from the seed,
      each under full and baseline on generic-4c.  Quality metrics are
      over a fixed prefix of programs, so they repeat exactly for a
      seed. *)

open Common
module Suite = Lp_workloads.Suite
module Workload = Lp_workloads.Workload
module Gen = Lp_robust.Gen

type plan = {
  ops : op array;          (** in run order; the loop wraps around *)
  quality : int;           (** ops [0, quality) make the quality metrics *)
  round : int;             (** runs stop only after a whole round of ops *)
  traced : int;            (** ops [0, traced) are the traced run's set *)
  programs : int;          (** distinct programs in [ops] *)
}

let expected_path = "perfbench/expected_suite.json"

(* ------------------------------------------------------------------ *)
(* suite-zoo                                                           *)
(* ------------------------------------------------------------------ *)

let suite_configs (m : Machine.t) =
  [ ("baseline", Compile.baseline); ("pg_dvfs", Compile.pg_dvfs);
    ("full", Compile.full ~n_cores:(Machine.n_cores m)) ]

let suite_ops () =
  List.concat_map
    (fun mname ->
      let machine = Option.get (Machine.of_name mname) in
      List.concat_map
        (fun (w : Workload.t) ->
          List.map
            (fun (config, opts) ->
              {
                label = Printf.sprintf "%s/%s/%s" w.Workload.name mname config;
                source = w.Workload.source;
                machine;
                config;
                opts;
                globals = w.Workload.check_globals;
                expect = Reference;
              })
            (suite_configs machine))
        Suite.all)
    Machine.names

(** The committed expected results: one observable digest per program
    and the exact code of every expected diagnostic. *)
let load_expected () =
  let j = Json.of_string (In_channel.with_open_bin expected_path In_channel.input_all) in
  let str k o = Option.get (Option.bind (Json.member k o) Json.to_string_opt) in
  let results =
    List.map
      (fun o -> (str "program" o, str "digest" o))
      (Json.to_list (Option.get (Json.member "results" j)))
  in
  let codes =
    List.map
      (fun o -> (str "op" o, str "code" o))
      (Json.to_list (Option.get (Json.member "diagnostics" j)))
  in
  (results, codes)

let suite_plan ~seed =
  let (results, codes) = load_expected () in
  let ops =
    List.map
      (fun op ->
        let program = List.hd (String.split_on_char '/' op.label) in
        op.expect <-
          (match List.assoc_opt op.label codes with
          | Some code -> Code code
          | None -> Result (List.assoc program results));
        op)
      (suite_ops ())
  in
  let n = List.length ops in
  { ops = Array.of_list (shuffle ~seed ops); quality = n; round = n; traced = n;
    programs = List.length Suite.all }

(** Regenerate [expected_suite.json]: each program's reference result
    (baseline, generic-4c, interpretive stepper), and the code of every
    op of the matrix that fails.  Returns the ops whose result differs
    from their program's reference (there must be none). *)
let write_expected () =
  let refs =
    List.map
      (fun (w : Workload.t) ->
        let s = reference ~globals:w.Workload.check_globals w.Workload.source in
        (w.Workload.name, s.digest))
      Suite.all
  in
  let diags = ref [] and differ = ref [] in
  List.iter
    (fun op ->
      let s = run_op op in
      let program = List.hd (String.split_on_char '/' op.label) in
      match s.code with
      | Some code -> diags := (op.label, code) :: !diags
      | None ->
        if s.digest <> List.assoc program refs then differ := op.label :: !differ)
    (suite_ops ());
  let obj kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs) in
  let j =
    Json.Obj
      [
        ("schema", Json.Str "lowpower-perfbench-expected/1");
        ( "reference",
          Json.Str "baseline on generic-4c, interpretive reference stepper" );
        ( "results",
          Json.List
            (List.map (fun (p, d) -> obj [ ("program", p); ("digest", d) ]) refs)
        );
        ( "diagnostics",
          Json.List
            (List.rev_map (fun (o, c) -> obj [ ("op", o); ("code", c) ]) !diags)
        );
      ]
  in
  Out_channel.with_open_bin expected_path (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n');
  List.rev !differ

(* ------------------------------------------------------------------ *)
(* gen-compile                                                         *)
(* ------------------------------------------------------------------ *)

let gen_programs = 5000
let gen_quality_programs = 2000
let gen_traced_programs = 200

let gen_plan ~seed =
  let rng = Lp_util.Rng.create ~seed in
  let machine = Machine.generic () in
  let ops =
    List.concat
      (List.init gen_programs (fun i ->
           let g = Gen.generate ~seed:(Lp_util.Rng.int rng 0x3fffffff) in
           List.map
             (fun (config, opts) ->
               {
                 label = Printf.sprintf "gen#%d/%s" i config;
                 source = g.Gen.source;
                 machine;
                 config;
                 opts;
                 globals = g.Gen.check_globals;
                 expect = Reference;
               })
             [ ("full", Compile.full ~n_cores:4); ("baseline", Compile.baseline) ]))
  in
  { ops = Array.of_list ops; quality = 2 * gen_quality_programs; round = 2;
    traced = 2 * gen_traced_programs; programs = gen_programs }

(** Fill in the reference result of every [Reference] op among [idxs]:
    one reference run per distinct source, over a pool of [nproc]
    domains. *)
let resolve_references (plan : plan) (idxs : int list) =
  let todo = Hashtbl.create 256 in
  List.iter
    (fun i ->
      let op = plan.ops.(i) in
      if op.expect = Reference then Hashtbl.replace todo op.source op.globals)
    idxs;
  let sources = Hashtbl.fold (fun s g acc -> (s, g) :: acc) todo [] in
  let digests =
    pool_map
      (fun (source, globals) ->
        let s = reference ~globals source in
        if s.code = None then s.digest else "reference failed")
      sources
  in
  let refs = Hashtbl.create 256 in
  List.iter2 (fun (s, _) d -> Hashtbl.replace refs s d) sources digests;
  List.iter
    (fun i ->
      let op = plan.ops.(i) in
      if op.expect = Reference then op.expect <- Result (Hashtbl.find refs op.source))
    idxs

(* ------------------------------------------------------------------ *)
(* Running a plan                                                      *)
(* ------------------------------------------------------------------ *)

let op_s (s : summary) = s.compile_s +. s.sim_s

(** The warm-up of a set-up: the first 21 distinct programs of the plan
    (every bundled program, for suite-zoo), once each under baseline on
    generic-4c. *)
let warm_up (plan : plan) =
  let seen = Hashtbl.create 32 in
  Array.iter
    (fun op ->
      if
        Hashtbl.length seen < 21 && op.config = "baseline"
        && op.machine.Machine.name = "generic-4c"
        && not (Hashtbl.mem seen op.source)
      then begin
        Hashtbl.add seen op.source ();
        ignore (run_op op)
      end)
    plan.ops

(** Run ops in plan order until [seconds] have passed, the quality
    prefix is done and the round is complete (so every run of a plan does
    the same mix of ops).  A probe runs before the first op and after
    each op, and each op's host times are scaled by the probes on either
    side of it.  Returns (index, scaled summary) pairs, oldest first. *)
let timed_loop ~seconds (plan : plan) =
  let n = Array.length plan.ops in
  let t0 = now () in
  let rec go i p acc =
    if i >= plan.quality && i mod plan.round = 0 && now () -. t0 >= seconds then
      List.rev acc
    else begin
      let s = run_op plan.ops.(i mod n) in
      let p' = probe () in
      go (i + 1) p' ((i mod n, scaled (speed p p') s) :: acc)
    end
  in
  go 0 (probe ()) []

(** Check every op run; returns (attempted, failed, first failures). *)
let check_all (plan : plan) (runs : (int * summary) list) =
  resolve_references plan (List.map fst runs);
  let failures = List.filter_map (fun (i, s) -> check plan.ops.(i) s) runs in
  (List.length runs, List.length failures, List.filteri (fun i _ -> i < 5) failures)

(** Geomeans over the successful ops of the quality prefix. *)
let quality (plan : plan) (runs : (int * summary) list) =
  let q =
    List.filter
      (fun s -> s.code = None)
      (List.map snd (List.filteri (fun k _ -> k < plan.quality) runs))
  in
  let gm f = geomean (List.map f q) in
  [
    m "sim_energy_gm_nj" "nJ" (gm (fun s -> s.energy_nj));
    m "sim_time_gm_us" "sim_us" (gm (fun s -> s.duration_ns /. 1e3));
    m "code_size_gm_instrs" "instrs"
      (gm (fun s -> float_of_int s.ir_instrs));
  ]

(** Timing metrics over every op at its typical repeat (suite-zoo runs
    each op once per pass; gen-compile runs each op about once), from the
    scaled host times. *)
let e2e ~setup_s (plan : plan) runs =
  let ss = List.map (fun g -> typical (List.map snd g)) (group_by ~key:fst runs) in
  let sum f = List.fold_left (fun a s -> a +. f s) 0.0 ss in
  [
    m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" (ratio (float_of_int (List.length ss)) (sum op_s));
    m "op_ms_p50" "ms" (ms (median (List.map op_s ss)));
    m "op_ms_p95" "ms" (ms (quantile (List.map op_s ss) 0.95));
    m "compile_ms_p50" "ms" (ms (median (List.map (fun s -> s.compile_s) ss)));
    m "sim_minstr_per_s" "Minstr/s"
      (ratio (sum (fun s -> float_of_int s.instrs) /. 1e6) (sum (fun s -> s.sim_s)));
    m "peak_rss_mb" "MB" (peak_rss_mb ());
  ]
  @ quality plan runs

(** Traced run: alternate a pass over the traced set through the staged
    pipeline with spans off and one with spans on, until [seconds] have
    passed.  Counters come from the first traced pass (they repeat
    exactly); times are per op over all traced passes.  Returns the
    per-layer metrics and every (index, summary). *)
let traced ~seconds ~name (plan : plan) =
  let set = List.init plan.traced Fun.id in
  let off = Trace.create ~on:false and tr = Trace.create ~on:true in
  let k = Stages.create_counts () and scratch = Stages.create_counts () in
  let t0 = now () in
  let rec passes n (untraced_s, traced_s) acc =
    if n > 0 && now () -. t0 >= seconds then (n, untraced_s, traced_s, acc)
    else begin
      let u = List.map (fun i -> (i, Stages.run_op off scratch plan.ops.(i))) set in
      let t = List.map (fun i -> (i, Stages.run_op tr (if n = 0 then k else scratch) plan.ops.(i))) set in
      let sum l = List.fold_left (fun a (_, s) -> a +. op_s s) 0.0 l in
      passes (n + 1) (untraced_s +. sum u, traced_s +. sum t) (acc @ u @ t)
    end
  in
  let (n, untraced_s, traced_s, runs) = passes 0 (0.0, 0.0) [] in
  let problems =
    List.map
      (fun l -> l ^ ": staged pipeline differs from Compile")
      (k.Stages.mismatches @ scratch.Stages.mismatches)
    @ Trace.unbalanced tr
  in
  Trace.write_chrome tr ~path:(Printf.sprintf "perfbench/_out/trace-%s.json" name);
  let layer = Stages.layer_metrics ~timed_ops:(n * plan.traced) tr k in
  let overhead = m "trace.overhead_pct" "%" (100.0 *. ((traced_s /. untraced_s) -. 1.0)) in
  (layer @ [ overhead ], runs, problems, n)

let run ~name ~(plan : plan) ~setup_s ~seconds ~trace : run_result =
  if not trace then begin
    let runs = timed_loop ~seconds plan in
    (* metrics first: peak memory must not include the check's references *)
    let metrics = e2e ~setup_s plan runs in
    let (attempted, failed, failures) = check_all plan runs in
    {
      attempted; failed; failures; metrics;
      deterministic = deterministic_e2e metrics;
      params = [ ("ops_in_plan", Json.Num (float_of_int (Array.length plan.ops)));
                 ("quality_ops", Json.Num (float_of_int plan.quality));
                 ("programs", Json.Num (float_of_int plan.programs)) ];
    }
  end
  else begin
    let (layer, runs, problems, passes) = traced ~seconds ~name plan in
    let (attempted, failed, failures) = check_all plan runs in
    {
      attempted;
      failed = failed + List.length problems;
      failures = failures @ problems;
      metrics = layer;
      deterministic = Stages.deterministic_layer_metrics layer;
      params = [ ("traced_ops", Json.Num (float_of_int plan.traced));
                 ("traced_passes", Json.Num (float_of_int passes)) ];
    }
  end

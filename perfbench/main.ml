(* The lowpower benchmark.  Run from the repository root:

     python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

   W is one of suite-zoo, gen-compile, serve-mixed, tune-search.  The
   last line of standard output is the result object; the line before
   it records the run's parameters and deterministic metrics.  See
   perfbench/README.md. *)

open Common

let workloads = [ "suite-zoo"; "gen-compile"; "serve-mixed"; "tune-search" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (suite-zoo|gen-compile|serve-mixed|tune-search) \
     --seed N --seconds S --trace 0|1\n\
    \       main.exe --write-expected";
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args argv =
  let rec go a = function
    | "--workload" :: w :: rest when List.mem w workloads -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with Some n -> go { a with seed = n } rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some s when s > 0.0 -> go { a with seconds = s } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | [] -> a
    | _ -> usage ()
  in
  let a = go { workload = ""; seed = 1; seconds = 10.0; trace = false } argv in
  if a.workload = "" then usage () else a

let run (a : args) : run_result =
  let seconds = a.seconds and trace = a.trace and seed = a.seed in
  match a.workload with
  | "suite-zoo" ->
    let (plan, setup_s) =
      timed_setups ~n:setup_repeats
        (fun () ->
          let plan = Compile_workloads.suite_plan ~seed in
          Compile_workloads.warm_up plan;
          plan)
        ignore
    in
    Compile_workloads.run ~name:a.workload ~plan ~setup_s ~seconds ~trace
  | "gen-compile" ->
    let (plan, setup_s) =
      timed_setups ~n:setup_repeats
        (fun () ->
          let plan = Compile_workloads.gen_plan ~seed in
          Compile_workloads.warm_up plan;
          plan)
        ignore
    in
    Compile_workloads.run ~name:a.workload ~plan ~setup_s ~seconds ~trace
  | "serve-mixed" -> Serve_mixed.run ~seed ~seconds ~trace
  | _ -> Tune_search.run ~seed ~seconds ~trace

(** Every per-layer metric, in report order.  A traced run reports all
    of them; a layer the workload does not exercise reads 0. *)
let per_layer =
  List.map
    (fun x -> (x.name, x.unit_))
    (Stages.layer_metrics ~timed_ops:0 (Trace.create ~on:false) (Stages.create_counts ()))
  @ [ ("serve.decode_us", "us"); ("serve.resolve_us", "us");
      ("serve.render_us", "us"); ("serve.work_ms", "ms"); ("serve.wait_ms", "ms");
      ("serve.cache_hits", "count"); ("serve.cache_misses", "count");
      ("serve.cache_hit_ratio", "ratio"); ("serve.shed_overload", "count");
      ("serve.retries", "count");
      ("tune.candidates", "count"); ("tune.evaluated", "count");
      ("tune.cache_hit_ratio", "ratio"); ("tune.restarts", "count");
      ("tune.eval_ms_p50", "ms");
      ("trace.overhead_pct", "%") ]

let complete_layers (ms_ : metric list) =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) ms_ with
      | Some x -> x
      | None -> m name unit_ 0.0)
    per_layer

(* ------------------------------------------------------------------ *)
(* Exact-repeat guard                                                  *)
(* ------------------------------------------------------------------ *)

(** Deterministic metrics of a (workload, mode, seed) must repeat bit for
    bit for the same executable.  The first run records them under
    [perfbench/_state]; later runs compare.  Returns the verdict. *)
let repeat_guard (a : args) (det : metric list) =
  let exe = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  let path =
    Printf.sprintf "perfbench/_state/%s-trace%d-seed%d-%s.txt" a.workload
      (if a.trace then 1 else 0) a.seed exe
  in
  let text =
    String.concat ""
      (List.map (fun x -> Printf.sprintf "%s %h\n" x.name x.value) det)
  in
  if Sys.file_exists path then
    if In_channel.with_open_bin path In_channel.input_all = text then "match"
    else "MISMATCH"
  else begin
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    "recorded"
  end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json ms_ =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value) x.unit_)
         ms_)
  ^ "}"

let mkdir_p d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let () =
  match Array.to_list Sys.argv with
  | [ _; "--write-expected" ] -> (
    match Compile_workloads.write_expected () with
    | [] -> print_endline ("wrote " ^ Compile_workloads.expected_path)
    | differ ->
      List.iter (fun l -> prerr_endline ("result differs from the reference: " ^ l)) differ;
      exit 1)
  | _ :: argv ->
    let a = parse_args argv in
    List.iter mkdir_p [ "perfbench/_out"; "perfbench/_state" ];
    let r = run a in
    let guard = repeat_guard a r.deterministic in
    List.iteri (fun i f -> if i < 10 then prerr_endline ("FAILED " ^ f)) r.failures;
    if guard = "MISMATCH" then
      prerr_endline "INVALID: deterministic metrics differ from an earlier run of this seed";
    let meta =
      Json.Obj
        ([
           ("benchmark", Json.Str "lowpower-perfbench/1");
           ("workload", Json.Str a.workload);
           ("seed", Json.Num (float_of_int a.seed));
           ("seconds", Json.Num a.seconds);
           ("trace", Json.Bool a.trace);
           ("nproc", Json.Num (float_of_int (nproc ())));
           ("ocaml", Json.Str Sys.ocaml_version);
           ("failed_share", Json.Num (ratio (float_of_int r.failed) (float_of_int r.attempted)));
           ("repeat_guard", Json.Str guard);
           ( "deterministic",
             Json.Obj (List.map (fun x -> (x.name, Json.Str (Printf.sprintf "%h" x.value))) r.deterministic) );
         ]
        @ r.params)
    in
    print_endline (Json.to_compact_string meta);
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
      (r.failed = 0 && r.attempted > 0 && guard <> "MISMATCH")
      r.attempted r.failed
      (metrics_json (if a.trace then complete_layers r.metrics else r.metrics))
  | [] -> usage ()

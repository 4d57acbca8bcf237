(** Shared plumbing for the evaluation experiments (tables T1-T5, figures
    F1-F6).  Each experiment module exposes [run : unit -> Lp_util.Table.t
    list] so the benchmark executable, the CLI and the tests can all drive
    the same code.

    The evaluation matrix is embarrassingly parallel: every (workload,
    config, machine) triple compiles and simulates independently.  Each
    experiment therefore declares the triples it needs as [job] values and
    fans them out over [Lp_util.Domain_pool] via [run_matrix], which fills
    the shared memo [cache]; the table is then rendered sequentially from
    the cache, so output is byte-identical whatever the pool size. *)

module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module Sim = Lp_sim.Sim
module Ledger = Lp_power.Energy_ledger
module Pattern = Lp_patterns.Pattern
module Workload = Lp_workloads.Workload
module Table = Lp_util.Table
module Domain_pool = Lp_util.Domain_pool
module Diag = Lp_util.Diag
module Fault = Lp_util.Fault
module Obs = Lp_obs.Obs

(* ------------------------------------------------------------------ *)
(* The driver context                                                  *)
(* ------------------------------------------------------------------ *)

(* Experiment entry points are [unit -> Table.t list], so the context is
   installed once by the process entry point (bin/, bench/) rather than
   threaded through every table function.  The default is the disabled
   recorder with default config — exactly the pre-context behaviour. *)
let ctx = Atomic.make Compile.default_ctx

let set_ctx c = Atomic.set ctx c
let current_ctx () = Atomic.get ctx

(** The machine of the main evaluation. *)
let default_machine () = Machine.generic ~n_cores:4 ()

(** Big machine for the core-count sweep. *)
let machine_with_cores n = Machine.generic ~n_cores:n ()

type run_result = {
  workload : string;
  config : string;
  compiled : Compile.compiled;
  outcome : Sim.outcome;
}

(** One evaluated matrix cell: the run, or the structured diagnostic it
    degraded to, plus how many attempts it took (more than one when a
    transient fault was retried). *)
type cell = {
  attempts : int;
  result : (run_result, Diag.t) result;
}

(* memo so that T3/T4/F2/F6 don't re-simulate the same (workload, config,
   machine) triple.  Guarded by [cache_mutex]: [run_matrix] fills it from
   several domains at once.  A racing miss may compute a triple twice;
   compilation is deterministic, so whichever insert wins is the same
   value.  Failed cells are cached too, so the table renderers see the
   same outcome (and retry count) the matrix produced. *)
let cache : (string * string * string, cell) Hashtbl.t = Hashtbl.create 64

let cache_mutex = Mutex.create ()

let cache_find key =
  Mutex.lock cache_mutex;
  let r = Hashtbl.find_opt cache key in
  Mutex.unlock cache_mutex;
  r

let cache_add key r =
  Mutex.lock cache_mutex;
  if not (Hashtbl.mem cache key) then Hashtbl.replace cache key r;
  Mutex.unlock cache_mutex

(** Drop all memoised runs (the bench harness uses this to time a cold
    sequential reference pass against a cold parallel pass). *)
let clear_cache () =
  Mutex.lock cache_mutex;
  Hashtbl.reset cache;
  Mutex.unlock cache_mutex

(* ------------------------------------------------------------------ *)
(* Graceful degradation and retry                                      *)
(* ------------------------------------------------------------------ *)

(** Retries after a transient failure (injected bounded faults, simulated
    transient bus faults); comes from the installed context's
    [Runtime_config.retries] (entry points resolve [LP_RETRIES] / the
    [--retries] flag into it). *)
let max_retries () = (current_ctx ()).Compile.config.Lp_util.Runtime_config.retries

(** Deterministic bounded exponential backoff: 4 ms, 8 ms, ... capped at
    50 ms (the shared {!Lp_util.Backoff} schedule, re-exported here
    because this is the retry path PR 2 introduced and tests target). *)
let backoff_s = Lp_util.Backoff.backoff_s

let attempt_run ~(machine : Machine.t) (w : Workload.t) ~(config : string)
    (opts : Compile.options) : (run_result, Diag.t) result =
  Fault.with_scope w.Workload.name @@ fun () ->
  (* audit-report events are labelled by matrix cell, not by evaluating
     domain, so the exported report is deterministic across pool sizes *)
  Lp_obs.Report.with_scope (w.Workload.name ^ "/" ^ config) @@ fun () ->
  match
    Fault.check Fault.Worker ~key:config;
    Compile.run ~ctx:(current_ctx ()) ~opts ~machine w.Workload.source
  with
  | (compiled, outcome) ->
    Ok { workload = w.Workload.name; config; compiled; outcome }
  | exception e -> (
    match Compile.diag_of_exn e with
    | Some d -> Error d
    | None ->
      (* even a foreign crash must not take the whole matrix down *)
      Error
        (Diag.make Diag.Internal ~code:Diag.code_internal
           (Printexc.to_string e)))

(** Evaluate (and memoise) one cell, retrying transient failures with
    deterministic bounded backoff.  A cache miss runs under a per-cell
    [matrix] span (its tid is the evaluating pool domain) and bumps the
    [matrix.cells] / [matrix.retries] / [matrix.failures] counters. *)
let run_workload_cell ?(machine = default_machine ()) (w : Workload.t)
    ~(config : string) (opts : Compile.options) : cell =
  let key = (w.Workload.name, config, machine.Machine.name) in
  match cache_find key with
  | Some c -> c
  | None ->
    let obs = (current_ctx ()).Compile.obs in
    let c =
      Obs.span obs ~cat:"matrix"
        ~args:
          [ ("workload", Obs.Str w.Workload.name);
            ("config", Obs.Str config);
            ("machine", Obs.Str machine.Machine.name);
            ("domain", Obs.Int (Domain.self () :> int)) ]
        (Printf.sprintf "%s/%s" w.Workload.name config)
      @@ fun () ->
      let retries = max_retries () in
      let rec go attempt =
        match attempt_run ~machine w ~config opts with
        | Error d when d.Diag.transient && attempt <= retries ->
          Unix.sleepf (backoff_s attempt);
          go (attempt + 1)
        | result -> { attempts = attempt; result }
      in
      go 1
    in
    Obs.add obs "matrix.cells" 1;
    Obs.add obs "matrix.retries" (c.attempts - 1);
    (match c.result with
    | Ok _ -> ()
    | Error _ -> Obs.add obs "matrix.failures" 1);
    cache_add key c;
    c

(** The cell's result alone (what the table renderers consume). *)
let run_workload_result ?machine (w : Workload.t) ~(config : string)
    (opts : Compile.options) : (run_result, Diag.t) result =
  (run_workload_cell ?machine w ~config opts).result

(** Every failed cell currently memoised, sorted for deterministic
    summaries: ((workload, config, machine), attempts, diagnostic). *)
let failed_cells () : ((string * string * string) * int * Diag.t) list =
  Mutex.lock cache_mutex;
  let failed =
    Hashtbl.fold
      (fun key c acc ->
        match c.result with
        | Ok _ -> acc
        | Error d -> (key, c.attempts, d) :: acc)
      cache []
  in
  Mutex.unlock cache_mutex;
  List.sort compare failed

(** Snapshot of every memoised cell's status, sorted:
    ((workload, config, machine), attempts, error code option). *)
let cell_statuses () : ((string * string * string) * int * string option) list =
  Mutex.lock cache_mutex;
  let all =
    Hashtbl.fold
      (fun key c acc ->
        let code =
          match c.result with Ok _ -> None | Error d -> Some d.Diag.code
        in
        (key, c.attempts, code) :: acc)
      cache []
  in
  Mutex.unlock cache_mutex;
  List.sort compare all

(** Snapshot of every memoised cell that ran, with the two simulated
    metrics the regression baseline tracks, sorted:
    ((workload, config, machine), total compute cycles, energy in nJ).
    Simulation is deterministic, so these are exact across hosts and
    pool sizes. *)
let cell_metrics () : ((string * string * string) * float * float) list =
  Mutex.lock cache_mutex;
  let all =
    Hashtbl.fold
      (fun key c acc ->
        match c.result with
        | Error _ -> acc
        | Ok r ->
          let cycles =
            Array.fold_left
              (fun a n -> a +. float_of_int n)
              0.0 r.outcome.Sim.cycles_per_core
          in
          (key, cycles, Ledger.total r.outcome.Sim.energy) :: acc)
      cache []
  in
  Mutex.unlock cache_mutex;
  List.sort compare all

(* ------------------------------------------------------------------ *)
(* Error-aware cell rendering                                          *)
(* ------------------------------------------------------------------ *)

(** How a failed cell renders in a table. *)
let err_str (d : Diag.t) = Printf.sprintf "ERR(%s)" d.Diag.code

(** Format a cell: the metric when it ran, [ERR(<code>)] when it failed. *)
let scell (c : (run_result, Diag.t) result) (f : run_result -> string) : string =
  match c with Ok r -> f r | Error d -> err_str d

(** A cell pairing two runs (ratios, overheads): the failed side's code
    wins, preferring the non-base cell's. *)
let scell2 (base : (run_result, Diag.t) result)
    (c : (run_result, Diag.t) result) (f : run_result -> run_result -> string)
    : string =
  match (base, c) with
  | (Ok b, Ok r) -> f b r
  | (_, Error d) | (Error d, _) -> err_str d

(** Metric of a pair of cells, for aggregate rows; [None] when either
    side failed. *)
let fopt2 base c (f : run_result -> run_result -> float) : float option =
  match (base, c) with (Ok b, Ok r) -> Some (f b r) | _ -> None

(* ------------------------------------------------------------------ *)
(* The parallel evaluation matrix                                      *)
(* ------------------------------------------------------------------ *)

(** One cell of the evaluation matrix. *)
type job = {
  j_workload : Workload.t;
  j_config : string;
  j_opts : Compile.options;
  j_machine : Machine.t;
}

let job ?machine (w : Workload.t) ~(config : string) (opts : Compile.options)
    : job =
  let machine = match machine with Some m -> m | None -> default_machine () in
  { j_workload = w; j_config = config; j_opts = opts; j_machine = machine }

(** [cross ?machine ws configs] — every workload under every (name, opts)
    configuration, the common matrix shape. *)
let cross ?machine (ws : Workload.t list)
    (configs : (string * Compile.options) list) : job list =
  List.concat_map
    (fun w -> List.map (fun (c, o) -> job ?machine w ~config:c o) configs)
    ws

(** Compile+simulate every job over the domain pool, memoising the
    results; already-cached and duplicate triples are skipped.  After
    [run_matrix], [run_workload_cell] on any of the jobs is a cache hit.
    A failing cell never aborts the matrix: it is retried (bounded,
    deterministic backoff) when transient and otherwise memoised as a
    structured diagnostic for the renderers to show as [ERR(<code>)]. *)
let run_matrix ?pool (jobs : job list) : unit =
  let seen = Hashtbl.create 64 in
  let todo =
    List.filter
      (fun j ->
        let key =
          (j.j_workload.Workload.name, j.j_config, j.j_machine.Machine.name)
        in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          Option.is_none (cache_find key)
        end)
      jobs
  in
  let obs = (current_ctx ()).Compile.obs in
  Obs.span obs ~cat:"matrix"
    ~args:[ ("jobs", Obs.Int (List.length todo)) ]
    "run_matrix"
  @@ fun () ->
  Domain_pool.parallel_iter ?pool
    (fun j ->
      ignore
        (run_workload_cell ~machine:j.j_machine j.j_workload ~config:j.j_config
           j.j_opts))
    todo

let energy r = Ledger.total r.outcome.Sim.energy
let time_ns r = r.outcome.Sim.duration_ns
let edp r = Sim.edp r.outcome

(** Energy of [config] normalised to the baseline run. *)
let normalised ~base r = energy r /. energy base

let fmt_ratio = Table.fmt_float ~digits:3

(** Count non-empty source lines of a workload. *)
let source_loc (w : Workload.t) =
  String.split_on_char '\n' w.Workload.source
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length

let all_workloads = Lp_workloads.Suite.all

let geomean_of xs = Lp_util.Stats.geomean xs

(** Geomean over aggregate values that survived their cells failing;
    ["-"] when every contributing cell failed. *)
let geomean_str (vals : float option list) : string =
  match List.filter_map Fun.id vals with
  | [] -> "-"
  | xs -> fmt_ratio (geomean_of xs)

(** Shared plumbing for the evaluation experiments (tables T1-T5, figures
    F1-F6, A1-A3) and the machine-zoo sweep.  Each experiment is a
    [unit -> Lp_util.Table.t] in {!Experiments.all}, which bench/main.exe
    and the tests drive.

    The evaluation matrix is embarrassingly parallel: every (workload,
    config, machine) triple compiles and simulates independently.  Each
    experiment therefore declares each triple it needs once, as a [job]
    value, fans the jobs out over [Lp_util.Domain_pool] via [run_matrix],
    which fills the shared memo [cache], and reads every cell back
    through its job ([result_of]); the table is then rendered
    sequentially from the cache, so output is byte-identical whatever
    the pool size. *)

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
   machine) triple; it never evicts.  [run_matrix] fills it from several
   domains at once, one domain per triple.  Failed cells are cached too,
   so the table renderers see the same outcome (and retry count) the
   matrix produced. *)
let cache : (string * string * string, cell) Lp_util.Memo.t =
  Lp_util.Memo.create ~capacity:max_int

(** Drop all memoised runs. *)
let clear_cache () = Lp_util.Memo.clear cache

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

let attempt_run { j_workload = w; j_config = config; j_opts = opts;
                  j_machine = machine } : (run_result, Diag.t) result =
  Fault.with_scope w.Workload.name @@ fun () ->
  (* audit-report events are labelled by matrix cell (machine included:
     one workload and config may run on several machines), not by
     evaluating domain, so the exported report is deterministic across
     pool sizes *)
  Lp_obs.Report.with_scope
    (Printf.sprintf "%s/%s@%s" w.Workload.name config machine.Machine.name)
  @@ fun () ->
  Compile.guard @@ fun () ->
  Fault.check Fault.Worker ~key:config;
  Result.map
    (fun (compiled, outcome) ->
      (* the memo keeps every cell until the process exits, and no table
         reads the final shared memory (about 125 KB a bundled program) *)
      let outcome = { outcome with Sim.shared_final = Hashtbl.create 1 } in
      { workload = w.Workload.name; config; compiled; outcome })
    (Compile.run_result ~ctx:(current_ctx ()) ~opts ~machine
       w.Workload.source)

let key_of (j : job) =
  (j.j_workload.Workload.name, j.j_config, j.j_machine.Machine.name)

(** Evaluate (and memoise) one cell, retrying transient failures with
    deterministic bounded backoff.  A cache miss runs under a per-cell
    [matrix] span (its tid is the evaluating pool domain) and bumps the
    [matrix.cells] / [matrix.retries] / [matrix.failures] counters. *)
let cell_of (j : job) : cell =
  let key = key_of j in
  match Lp_util.Memo.find cache key with
  | Some c -> c
  | None ->
    let (workload, config, machine) = key in
    let obs = (current_ctx ()).Compile.obs in
    let c =
      Obs.span obs ~cat:"matrix"
        ~args:
          [ ("workload", Obs.Str workload);
            ("config", Obs.Str config);
            ("machine", Obs.Str machine);
            ("domain", Obs.Int (Domain.self () :> int)) ]
        (Printf.sprintf "%s/%s" workload config)
      @@ fun () ->
      let (result, attempts) =
        Lp_util.Backoff.retry ~retries:(max_retries ()) (fun () ->
            attempt_run j)
      in
      { attempts; result }
    in
    Obs.add obs "matrix.cells" 1;
    Obs.add obs "matrix.retries" (c.attempts - 1);
    (match c.result with
    | Ok _ -> ()
    | Error _ -> Obs.add obs "matrix.failures" 1);
    Lp_util.Memo.add cache key c;
    c

(** The job's cell result (evaluated and memoised on a miss). *)
let result_of (j : job) : (run_result, Diag.t) result = (cell_of j).result

(** Every memoised cell, sorted by (workload, config, machine). *)
let cells () : ((string * string * string) * cell) list =
  Lp_util.Memo.fold (fun key c acc -> (key, c) :: acc) cache []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** Every failed cell currently memoised, sorted for deterministic
    summaries: ((workload, config, machine), attempts, diagnostic). *)
let failed_cells () : ((string * string * string) * int * Diag.t) list =
  List.filter_map
    (fun (key, c) ->
      match c.result with Ok _ -> None | Error d -> Some (key, c.attempts, d))
    (cells ())

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

(** [cross ?machine ws configs] — every workload under every (name, opts)
    configuration, the common matrix shape. *)
let cross ?machine (ws : Workload.t list)
    (configs : (string * Compile.options) list) : job list =
  List.concat_map
    (fun w -> List.map (fun (c, o) -> job ?machine w ~config:c o) configs)
    ws

(** Compile+simulate every job over the domain pool, memoising the
    results; already-cached and duplicate triples are skipped.  After
    [run_matrix], [result_of] on any of the jobs is a cache hit.
    A failing cell never aborts the matrix: it is retried (bounded,
    deterministic backoff) when transient and otherwise memoised as a
    structured diagnostic for the renderers to show as [ERR(<code>)]. *)
let run_matrix ?pool (jobs : job list) : unit =
  let seen = Hashtbl.create 64 in
  let todo =
    List.filter
      (fun j ->
        let key = key_of j in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          Option.is_none (Lp_util.Memo.find cache key)
        end)
      jobs
  in
  let obs = (current_ctx ()).Compile.obs in
  Obs.span obs ~cat:"matrix"
    ~args:[ ("jobs", Obs.Int (List.length todo)) ]
    "run_matrix"
  @@ fun () ->
  Domain_pool.parallel_iter ?pool (fun j -> ignore (cell_of j)) todo

(* ------------------------------------------------------------------ *)
(* Tables of rows over the matrix                                      *)
(* ------------------------------------------------------------------ *)

type row = { keys : string list; reference : job; compared : job }

let row keys ~reference compared = { keys; reference; compared }
let single keys j = { keys; reference = j; compared = j }

type column =
  | Reference of (run_result -> string)
  | Compared of (run_result -> string)
  | Pair of (run_result -> run_result -> string)

(** Run every row's jobs on the matrix (reference first, row order),
    then render one line per row: its keys, then its columns. *)
let row_table ~title ~header ~aligns (columns : column list) (rows : row list)
    : Table.t =
  run_matrix (List.concat_map (fun r -> [ r.reference; r.compared ]) rows);
  let tbl = Table.create ~title ~header ~aligns () in
  List.iter
    (fun r ->
      let base = result_of r.reference and c = result_of r.compared in
      Table.add_row tbl
        (r.keys
        @ List.map
            (function
              | Reference f -> scell base f
              | Compared f -> scell c f
              | Pair f -> scell2 base c f)
            columns))
    rows;
  tbl

let cycles r =
  Array.fold_left (fun a n -> a +. float_of_int n) 0.0
    r.outcome.Sim.cycles_per_core

let energy r = Ledger.total r.outcome.Sim.energy
let time_ns r = r.outcome.Sim.duration_ns
let edp r = Sim.edp r.outcome

(** Energy of [config] normalised to the baseline run. *)
let normalised ~base r = energy r /. energy base

let fmt_ratio = Table.fmt_float ~digits:3

(** Percentage by which [after] is below [before] (0 when [before] is). *)
let reduction_pct ~before ~after =
  Table.fmt_float ~digits:1
    (if before = 0 then 0.0
     else 100.0 *. float_of_int (before - after) /. float_of_int before)

(** Count non-empty source lines of a workload. *)
let source_loc (w : Workload.t) =
  String.split_on_char '\n' w.Workload.source
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length

let all_workloads = Lp_workloads.Suite.all

(** Geomean over aggregate values that survived their cells failing;
    ["-"] when every contributing cell failed. *)
let geomean_str (vals : float option list) : string =
  match List.filter_map Fun.id vals with
  | [] -> "-"
  | xs -> fmt_ratio (Lp_util.Stats.geomean xs)

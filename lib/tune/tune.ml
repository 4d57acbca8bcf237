(** Energy-aware phase-ordering autotuner (see the interface).

    The search loop is deliberately structured for reproducibility
    across pool sizes: each round *generates* its candidates
    sequentially from the one seeded RNG, then *evaluates* the unique
    uncached ones (compiled in parallel, their programs digested and
    de-duplicated sequentially, the new programs simulated in parallel;
    [Domain_pool.parallel_map] preserves order and compilation +
    simulation are deterministic), then *selects* sequentially (ties
    keep the earliest proposal).  The RNG is never touched from a
    worker domain. *)

module Compile = Lowpower.Compile
module Pipeline = Lowpower.Pipeline
module Machine = Lp_machine.Machine
module Sim = Lp_sim.Sim
module Ledger = Lp_power.Energy_ledger
module Workload = Lp_workloads.Workload
module Rng = Lp_util.Rng
module Diag = Lp_util.Diag
module Deadline = Lp_util.Deadline
module Domain_pool = Lp_util.Domain_pool
module Json = Lp_util.Json
module Table = Lp_util.Table
module Obs = Lp_obs.Obs
module Prog = Lp_ir.Prog
module Fault = Lp_util.Fault

(* ------------------------------------------------------------------ *)
(* Objective                                                           *)
(* ------------------------------------------------------------------ *)

type objective = { energy_nj : float; cycles : int }

let better a b =
  a.energy_nj < b.energy_nj
  || (a.energy_nj = b.energy_nj && a.cycles < b.cycles)

(** What an infeasible candidate scores. *)
let worst = { energy_nj = infinity; cycles = max_int }

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  budget : int;
  seed : int;
  config_name : string;
  opts : Compile.options;
  machine : Machine.t;
}

(* candidates proposed per hill-climbing round, and stalled rounds
   before a random restart *)
let round_size = 8
let restart_after = 4

let default_config ?(budget = 100) ?(seed = 1) ?(config_name = "baseline")
    ?(opts = Compile.baseline) ?machine () =
  {
    budget = max 1 budget;
    seed;
    config_name;
    opts;
    machine =
      (match machine with Some m -> m | None -> Machine.generic ~n_cores:4 ());
  }

(* fir is saturated by the default schedule (tuning should find nothing
   and say so); the others have nested loops or multi-phase structure
   where pass interactions leave real energy on the table *)
let default_workloads = [ "fir"; "conv2d"; "jpegblocks"; "fft" ]

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

let remove_at i l = List.filteri (fun j _ -> j <> i) l

let insert_at i x l =
  let rec go j l =
    if j = i then x :: l
    else match l with [] -> [ x ] | y :: tl -> y :: go (j + 1) tl
  in
  go 0 l

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

let step_passes = function
  | Pipeline.Run p -> [ p ]
  | Pipeline.Fixpoint ps -> ps
  | Pipeline.If _ -> invalid_arg "Tune.mutate: schedule must be flat"

(** A group of one pass is spelled as a plain run. *)
let group = function [ p ] -> Pipeline.Run p | ps -> Pipeline.Fixpoint ps

type kind = Swap | Move | Drop | Dup | Split | Merge

let mutate (rng : Rng.t) (t : Pipeline.t) : Pipeline.t =
  let n = List.length t in
  if n = 0 then invalid_arg "Tune.mutate: empty schedule";
  let splittable =
    List.filteri
      (fun _ s ->
        match s with Pipeline.Fixpoint ps -> List.length ps >= 2 | _ -> false)
      t
    <> []
  in
  let kinds =
    (if n >= 2 then [ Swap; Move; Drop; Merge ] else [])
    @ [ Dup ]
    @ (if splittable then [ Split ] else [])
  in
  match Rng.choose rng kinds with
  | Swap ->
    let i = Rng.int rng n in
    let j =
      let j = Rng.int rng (n - 1) in
      if j >= i then j + 1 else j
    in
    List.mapi
      (fun k s ->
        if k = i then List.nth t j else if k = j then List.nth t i else s)
      t
  | Move ->
    let i = Rng.int rng n in
    let s = List.nth t i in
    insert_at (Rng.int rng n) s (remove_at i t)
  | Drop -> remove_at (Rng.int rng n) t
  | Dup ->
    let s = List.nth t (Rng.int rng n) in
    insert_at (Rng.int rng (n + 1)) s t
  | Split ->
    let idxs =
      List.filteri (fun _ x -> x >= 0)
        (List.mapi
           (fun i s ->
             match s with
             | Pipeline.Fixpoint ps when List.length ps >= 2 -> i
             | _ -> -1)
           t)
      |> List.filter (fun i -> i >= 0)
    in
    let i = Rng.choose rng idxs in
    let ps = step_passes (List.nth t i) in
    let k = 1 + Rng.int rng (List.length ps - 1) in
    let front = take k ps and back = List.filteri (fun j _ -> j >= k) ps in
    List.concat
      [ take i t; [ group front; group back ];
        List.filteri (fun j _ -> j > i) t ]
  | Merge ->
    let i = Rng.int rng (n - 1) in
    let merged =
      Pipeline.Fixpoint
        (step_passes (List.nth t i) @ step_passes (List.nth t (i + 1)))
    in
    List.concat
      [ take i t; [ merged ]; List.filteri (fun j _ -> j > i + 1) t ]

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(** Deadline expiry aborts the whole tune; it does not score. *)
let scored = function
  | Error d when d.Diag.code = Deadline.code -> raise (Diag.Error d)
  | r -> r

let compile_candidate ~ctx (cfg : config) ast spec =
  match Pipeline.parse spec with
  | Error d -> Error d
  | Ok pipeline ->
    let opts = Compile.Options.update ~pipeline cfg.opts in
    scored (Compile.compile_checked ~ctx ~opts ~machine:cfg.machine ast)

let simulate ~ctx (c : Compile.compiled) : (objective, Diag.t) result =
  Compile.simulate_result ~ctx c
  |> Result.map (fun o ->
         {
           energy_nj = Ledger.total o.Sim.energy;
           cycles = Array.fold_left ( + ) 0 o.Sim.cycles_per_core;
         })
  |> scored

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type workload_result = {
  tw_workload : string;
  tw_baseline : objective;
  tw_best : objective;
  tw_best_spec : string;
  tw_candidates : int;
  tw_evaluated : int;
  tw_cache_hits : int;
  tw_restarts : int;
}

let improved tw = tw.tw_best.energy_nj < tw.tw_baseline.energy_nj

let improvement_pct tw =
  if tw.tw_baseline.energy_nj > 0. then
    (tw.tw_baseline.energy_nj -. tw.tw_best.energy_nj)
    /. tw.tw_baseline.energy_nj *. 100.
  else 0.

type summary = {
  t_seed : int;
  t_budget : int;
  t_config : string;
  t_machine : string;
  t_workloads : workload_result list;
}

(* ------------------------------------------------------------------ *)
(* The search                                                          *)
(* ------------------------------------------------------------------ *)

(* deterministic per-workload stream: one seed must not make every
   workload explore the same mutation sequence *)
let name_seed name =
  String.fold_left (fun a c -> ((a * 33) + Char.code c) land 0x3FFFFFFF) 5381 name

let tune_workload ?(ctx = Compile.default_ctx) ?pool (cfg : config)
    (w : Workload.t) : (workload_result, Diag.t) result =
  (* the audit report is not meaningful across hundreds of throwaway
     candidate runs (and its event order would depend on the pool);
     counters are sums, so they stay *)
  let ctx = { ctx with Compile.report = Lp_obs.Report.disabled } in
  let obs = ctx.Compile.obs in
  let rng =
    Rng.create ~seed:((cfg.seed * 0x1000193) + name_seed w.Workload.name)
  in
  (* memoised evaluations, keyed by spec string: duplicate candidates
     are never recompiled (the Exp_common cell discipline; here all
     cache access is sequential, only compiling and simulating fan out) *)
  let cache : (string, (objective, Diag.t) result) Hashtbl.t =
    Hashtbl.create 64
  in
  (* simulation results by program digest: most schedules compile to a
     program an earlier one already produced.  Within one search the
     machine and every option but the schedule are fixed, so the digest
     alone is the key.  Injected faults make a simulation
     attempt-dependent, so an armed spec simulates every program. *)
  let sims : (Digest.t, (objective, Diag.t) result) Hashtbl.t =
    Hashtbl.create 64
  in
  let memo = not (Fault.active ()) in
  let evaluated = ref 0 in
  let eval_specs ast specs =
    let compiled =
      Domain_pool.parallel_map ?pool (compile_candidate ~ctx cfg ast) specs
    in
    let objs =
      if memo then begin
        (* digest and de-duplicate sequentially, in proposal order, so
           which program gets simulated does not depend on the pool *)
        let keyed =
          List.map
            (Result.map (fun c -> (Prog.digest c.Compile.prog, c)))
            compiled
        in
        let chosen = Hashtbl.create 8 in
        let to_sim =
          List.filter_map
            (function
              | Ok (d, c) when not (Hashtbl.mem sims d || Hashtbl.mem chosen d)
                ->
                Hashtbl.replace chosen d ();
                Some (d, c)
              | Ok _ | Error _ -> None)
            keyed
        in
        Obs.add obs "tune.simulations" (List.length to_sim);
        let results =
          Domain_pool.parallel_map ?pool (fun (_, c) -> simulate ~ctx c) to_sim
        in
        List.iter2 (fun (d, _) r -> Hashtbl.replace sims d r) to_sim results;
        List.map
          (fun k -> Result.bind k (fun (d, _) -> Hashtbl.find sims d))
          keyed
      end
      else begin
        Obs.add obs "tune.simulations"
          (List.length (List.filter Result.is_ok compiled));
        Domain_pool.parallel_map ?pool
          (fun c -> Result.bind c (simulate ~ctx))
          compiled
      end
    in
    List.iter2 (fun s o -> Hashtbl.replace cache s o) specs objs;
    evaluated := !evaluated + List.length specs
  in
  let objective_of spec =
    match Hashtbl.find_opt cache spec with
    | Some (Ok o) -> Some o
    | Some (Error _) -> Some worst
    | None -> None (* truncated by the budget: unknown, not scored *)
  in
  let candidates = ref 0 and cache_hits = ref 0 and restarts = ref 0 in
  try
    (* parsed and type-checked once; every candidate compiles from it *)
    let ast =
      let source = w.Workload.source in
      match Compile.parse_and_check source with
      | ast -> ast
      | exception _ -> (
        (* fail as a full compile does: its core-count and deadline
           checks come before the frontend *)
        match
          Compile.compile_result ~ctx ~opts:cfg.opts ~machine:cfg.machine
            source
        with
        | Error d -> raise (Diag.Error d)
        | Ok _ -> assert false)
    in
    let start =
      Pipeline.flatten ~mac_fusion:cfg.opts.Compile.mac_fusion
        (Option.value ~default:Pipeline.default cfg.opts.Compile.pipeline)
    in
    let start_spec = Pipeline.to_spec start in
    eval_specs ast [ start_spec ];
    let baseline_obj =
      match Hashtbl.find cache start_spec with
      | Ok o -> o
      | Error d -> raise (Diag.Error d)
    in
    let current = ref start and current_obj = ref baseline_obj in
    let best = ref start and best_obj = ref baseline_obj in
    let stall = ref 0 and rounds = ref 0 in
    (* the round cap only matters when every proposal keeps hitting the
       cache; it guarantees termination without consuming budget *)
    while !evaluated < cfg.budget && !rounds < 8 * cfg.budget do
      incr rounds;
      Deadline.check ctx.Compile.deadline;
      if !stall >= restart_after then begin
        (* restart: jump to a seeded shuffle of the starting schedule,
           unconditionally (the global best is tracked separately) *)
        incr restarts;
        stall := 0;
        let c = Rng.shuffle rng start in
        let spec = Pipeline.to_spec c in
        if Hashtbl.mem cache spec then begin
          incr cache_hits;
          Obs.add obs "tune.cache_hits" 1
        end
        else if !evaluated < cfg.budget then eval_specs ast [ spec ];
        current := c;
        current_obj := Option.value (objective_of spec) ~default:worst
      end;
      (* generate this round's proposals sequentially from the RNG *)
      let proposals = ref [] in
      for _ = 1 to round_size do
        incr candidates;
        let c = mutate rng !current in
        let spec = Pipeline.to_spec c in
        (* every candidate must survive a parse/print round-trip *)
        match Pipeline.parse spec with
        | Ok c' when Pipeline.to_spec c' = spec ->
          proposals := spec :: !proposals
        | _ -> ()
      done;
      Obs.add obs "tune.candidates" round_size;
      let uniq =
        List.fold_left
          (fun acc s -> if List.mem s acc then acc else s :: acc)
          [] (List.rev !proposals)
        |> List.rev
      in
      let (hits, misses) = List.partition (Hashtbl.mem cache) uniq in
      if hits <> [] then begin
        cache_hits := !cache_hits + List.length hits;
        Obs.add obs "tune.cache_hits" (List.length hits)
      end;
      let to_eval = take (cfg.budget - !evaluated) misses in
      if to_eval <> [] then eval_specs ast to_eval;
      (* move to the round's best strict improvement, ties keep the
         earliest proposal *)
      let round_best =
        List.fold_left
          (fun acc spec ->
            match objective_of spec with
            | None -> acc
            | Some o -> (
              match acc with
              | Some (_, bo) when not (better o bo) -> acc
              | _ -> Some (spec, o)))
          None uniq
      in
      match round_best with
      | Some (spec, o) when better o !current_obj ->
        stall := 0;
        (match Pipeline.parse spec with
        | Ok c -> current := c
        | Error _ -> assert false);
        current_obj := o;
        if better o !best_obj then begin
          best := !current;
          best_obj := o;
          Obs.add obs "tune.improved" 1
        end
      | _ -> incr stall
    done;
    Ok
      {
        tw_workload = w.Workload.name;
        tw_baseline = baseline_obj;
        tw_best = !best_obj;
        tw_best_spec = Pipeline.to_spec !best;
        tw_candidates = !candidates;
        tw_evaluated = !evaluated;
        tw_cache_hits = !cache_hits;
        tw_restarts = !restarts;
      }
  with Diag.Error d -> Error d

let run ?ctx ?pool (cfg : config) (ws : Workload.t list) :
    (summary, Diag.t) result =
  let rec go acc = function
    | [] ->
      Ok
        {
          t_seed = cfg.seed;
          t_budget = cfg.budget;
          t_config = cfg.config_name;
          t_machine = cfg.machine.Machine.name;
          t_workloads = List.rev acc;
        }
    | w :: tl -> (
      match tune_workload ?ctx ?pool cfg w with
      | Ok r -> go (r :: acc) tl
      | Error d -> Error d)
  in
  go [] ws

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let to_table (r : summary) : Table.t =
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "Tune: energy-best schedules (config %s, machine %s, seed %d, \
            budget %d)"
           r.t_config r.t_machine r.t_seed r.t_budget)
      ~header:
        [ "workload"; "baseline nJ"; "tuned nJ"; "delta"; "cand"; "eval";
          "hits"; "restarts" ]
      ~aligns:
        Table.[ Left; Right; Right; Right; Right; Right; Right; Right ]
      ()
  in
  List.iter
    (fun tw ->
      Table.add_row tbl
        [
          tw.tw_workload;
          Table.fmt_float ~digits:1 tw.tw_baseline.energy_nj;
          Table.fmt_float ~digits:1 tw.tw_best.energy_nj;
          (if improved tw then Printf.sprintf "-%.2f%%" (improvement_pct tw)
           else "=");
          string_of_int tw.tw_candidates;
          string_of_int tw.tw_evaluated;
          string_of_int tw.tw_cache_hits;
          string_of_int tw.tw_restarts;
        ])
    r.t_workloads;
  tbl

let render (r : summary) : string =
  Table.render (to_table r)
  ^ "\n"
  ^ String.concat ""
      (List.map
         (fun tw -> Printf.sprintf "%s: %s\n" tw.tw_workload tw.tw_best_spec)
         r.t_workloads)

(* ------------------------------------------------------------------ *)
(* JSON artifact                                                       *)
(* ------------------------------------------------------------------ *)

let schema = "lowpower-bench-tune/1"

let json_of (r : summary) : Json.t =
  let num n = Json.Num (float_of_int n) in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("seed", num r.t_seed);
      ("budget", num r.t_budget);
      ("config", Json.Str r.t_config);
      ("machine", Json.Str r.t_machine);
      ("improved", num (List.length (List.filter improved r.t_workloads)));
      ( "workloads",
        Json.List
          (List.map
             (fun tw ->
               Json.Obj
                 [
                   ("workload", Json.Str tw.tw_workload);
                   ("baseline_energy_nj", Json.Num tw.tw_baseline.energy_nj);
                   ("baseline_cycles", num tw.tw_baseline.cycles);
                   ("tuned_energy_nj", Json.Num tw.tw_best.energy_nj);
                   ("tuned_cycles", num tw.tw_best.cycles);
                   ("improvement_pct", Json.Num (improvement_pct tw));
                   ("spec", Json.Str tw.tw_best_spec);
                   ("candidates", num tw.tw_candidates);
                   ("evaluated", num tw.tw_evaluated);
                   ("cache_hits", num tw.tw_cache_hits);
                   ("restarts", num tw.tw_restarts);
                 ])
             r.t_workloads) );
    ]

(* ------------------------------------------------------------------ *)
(* Best-schedule export                                                *)
(* ------------------------------------------------------------------ *)

let best_improvement (r : summary) : workload_result option =
  List.fold_left
    (fun acc tw ->
      if not (improved tw) then acc
      else
        match acc with
        | Some b when improvement_pct b >= improvement_pct tw -> acc
        | _ -> Some tw)
    None r.t_workloads

let save_best (r : summary) (path : string) : (workload_result, string) result
    =
  match best_improvement r with
  | None -> Error "no workload improved on the default schedule"
  | Some tw -> (
    match Pipeline.parse tw.tw_best_spec with
    | Error d -> Error (Diag.to_string d)
    | Ok t ->
      Pipeline.save_file
        ~name:("tuned-" ^ tw.tw_workload)
        ~comment:
          (Printf.sprintf
             "seed %d budget %d config %s machine %s: %s -> %s nJ (-%.2f%%)"
             r.t_seed r.t_budget r.t_config r.t_machine
             (Json.num_to_string tw.tw_baseline.energy_nj)
             (Json.num_to_string tw.tw_best.energy_nj)
             (improvement_pct tw))
        path t;
      Ok tw)

(** Pass manager: runs named function passes over a program, collecting
    per-pass statistics (time, number of rewrites) for the compile-stats
    table (T5), and emitting telemetry spans when the manager's recorder
    is enabled.

    Every pass runs against a shared {!Lp_analysis.Manager}: it queries
    analyses (CFG, dominators, liveness, loops, estimates) through the
    manager instead of computing them, and declares in [preserves] which
    of those analyses its rewrites keep valid.  After a pass changes a
    function, the manager drops that function's cached analyses except
    the preserved ones — so a later pass (or a later sweep of a
    fixpoint) gets cache hits exactly where nothing relevant moved.

    Timing has one source: every [run_pass] takes exactly one span
    measurement (via the recorder's monotonic clock) and the [stats]
    list is the per-pass aggregation of those spans, so the T5 table and
    a [--trace] dump can never disagree.  With the disabled recorder the
    measurement still happens (T5 needs it) but no span is stored.

    Runs known to change nothing are skipped.  A [local] pass reads
    nothing outside the function it rewrites, so its result on a function
    depends only on that function; once it has run on a function and
    changed nothing, running it again before the function's
    {!Lp_ir.Prog.version} moves would change nothing either.  The manager
    remembers that version per (pass, function) and skips the pass body
    while it still matches.  A skipped run still counts in [runs], still
    checks the deadline, and still reaches the [Post_pass] fault point
    and the [on_pass] hook.  The memo is on exactly when analysis caching
    is ([LP_NO_ANALYSIS_CACHE=1] turns both off), so the uncached run
    stays the reference it is checked against. *)

module Prog = Lp_ir.Prog
module Obs = Lp_obs.Obs
module Report = Lp_obs.Report
module Manager = Lp_analysis.Manager

type stats = {
  pass_name : string;
  mutable runs : int;
  mutable changes : int;
  mutable seconds : float;
}

type func_pass = {
  name : string;
  preserves : Manager.kind list;
      (** analyses still valid for a function this pass changed *)
  local : bool;
      (** reads nothing outside the function it runs on, so a repeat run
          on an unchanged function can be skipped *)
  run : Manager.t -> Prog.t -> Prog.func -> int;
      (** returns number of changes *)
}

type manager = {
  by_name : (string, stats) Hashtbl.t;
  mutable order : string list;  (** first-seen pass names, reversed *)
  obs : Obs.t;
  report : Report.t;
      (** per-pass IR deltas land in the power-decision audit report *)
  on_pass : (string -> Prog.t -> unit) option;
      (** called after every pass run (fuzzing hooks verification in
          here); may raise to abort the compile *)
  caching : bool;
      (** analysis managers memoize and no-op reruns are skipped
          (LP_NO_ANALYSIS_CACHE off) *)
  deadline : Lp_util.Deadline.t;
      (** cooperative per-request deadline, checked before every pass and
          before every per-function run; expiry raises [E_DEADLINE] *)
  mutable am : (Prog.t * Manager.t) option;
      (** analysis manager of the program last run, created lazily *)
  clean : (string * string, int) Hashtbl.t;
      (** (pass, function) -> the function's version after the last run
          of a [local] pass that changed nothing; reset with [am] *)
}

let create_manager ?(obs = Obs.disabled) ?(report = Report.disabled)
    ?(caching = true) ?(deadline = Lp_util.Deadline.none) ?on_pass () =
  {
    by_name = Hashtbl.create 16;
    order = [];
    obs;
    report;
    on_pass;
    caching;
    deadline;
    am = None;
    clean = Hashtbl.create 64;
  }

(** The analysis manager serving [prog] (created on first use; one pass
    manager normally drives one program, but tests reuse them). *)
let analysis_manager m (prog : Prog.t) : Manager.t =
  match m.am with
  | Some (p, am) when p == prog -> am
  | Some _ | None ->
    let am = Manager.create ~obs:m.obs ~caching:m.caching prog in
    m.am <- Some (prog, am);
    Hashtbl.reset m.clean;
    am

let stats_for m name =
  match Hashtbl.find_opt m.by_name name with
  | Some s -> s
  | None ->
    let s = { pass_name = name; runs = 0; changes = 0; seconds = 0.0 } in
    Hashtbl.replace m.by_name name s;
    m.order <- name :: m.order;
    s

(** Run one pass over every function; returns total changes.  Functions
    the pass changed get their cached analyses invalidated (minus the
    pass's [preserves] set) before the next function runs. *)
let run_pass m (p : func_pass) (prog : Prog.t) : int =
  let s = stats_for m p.name in
  let am = analysis_manager m prog in
  let traced = Obs.enabled m.obs in
  let audited = Report.enabled m.report in
  let instrs_before = if audited then Prog.total_instrs prog else 0 in
  let memo = m.caching && p.local in
  let run_func f =
    Lp_util.Deadline.check m.deadline;
    let v = Prog.version f in
    let clean () =
      match Hashtbl.find_opt m.clean (p.name, f.Prog.fname) with
      | Some v' -> v' = v
      | None -> false
    in
    if memo && clean () then 0
    else begin
      let n = p.run am prog f in
      if n > 0 then Manager.invalidate am ~preserves:p.preserves f
      else if memo && Prog.version f = v then
        Hashtbl.replace m.clean (p.name, f.Prog.fname) v;
      n
    end
  in
  let t0 = Obs.now_ns m.obs in
  let changes =
    if traced then
      List.fold_left
        (fun acc f ->
          acc
          + Obs.span m.obs ~cat:"func"
              ~args:[ ("pass", Obs.Str p.name) ]
              f.Prog.fname
              (fun () -> run_func f))
        0 (Prog.funcs prog)
    else List.fold_left (fun acc f -> acc + run_func f) 0 (Prog.funcs prog)
  in
  let dur = Obs.now_ns m.obs -. t0 in
  if traced then
    Obs.emit_span m.obs ~cat:"pass"
      ~args:[ ("changes", Obs.Int changes); ("runs", Obs.Int (s.runs + 1)) ]
      ~start_ns:t0 ~dur_ns:dur p.name;
  s.runs <- s.runs + 1;
  s.changes <- s.changes + changes;
  s.seconds <- s.seconds +. (dur *. 1e-9);
  if audited && changes > 0 then
    Report.add m.report
      (Report.Pass_delta
         {
           pd_pass = p.name;
           pd_run = s.runs;
           pd_changes = changes;
           pd_instrs_before = instrs_before;
           pd_instrs_after = Prog.total_instrs prog;
         });
  Lp_util.Fault.check Lp_util.Fault.Post_pass ~key:p.name;
  (match m.on_pass with Some f -> f p.name prog | None -> ());
  changes

(** Run a list of passes repeatedly until a full sweep changes nothing
    (bounded by [max_rounds]).  Each sweep gets a [fixpoint] round
    span. *)
let run_to_fixpoint ?(max_rounds = 8) m passes prog =
  let sweep round =
    Obs.span m.obs ~cat:"fixpoint"
      ~args:[ ("round", Obs.Int round) ]
      "round"
      (fun () ->
        List.fold_left (fun acc p -> acc + run_pass m p prog) 0 passes)
  in
  let rec loop round =
    if round < max_rounds then begin
      let changed = sweep round in
      if changed > 0 then loop (round + 1)
    end
  in
  loop 0

(** Per-pass statistics in first-use order (aggregated from the span
    measurements of every [run_pass]). *)
let stats m =
  List.rev_map (fun name -> Hashtbl.find m.by_name name) m.order

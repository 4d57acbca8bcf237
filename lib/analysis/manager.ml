(** Invalidation-aware analysis cache.

    One manager serves memoized analysis results for every function of a
    program.  Each cached per-function result is stamped with the
    function's mutation version ({!Lp_ir.Prog.version}); a query whose
    stamp no longer matches recomputes.  Program-level analyses
    (component use, static time estimation, which follow calls across
    functions) are stamped with {!Lp_ir.Prog.prog_version} instead.

    The pass manager additionally calls {!invalidate} after a pass that
    reported changes: analyses the pass declared it preserves are
    re-stamped to the function's current version (asserting they are
    still valid), everything else is dropped.  Because analyses are
    deterministic, a cached result is byte-identical to a fresh
    recomputation — caching must never change compiler output, only
    avoid repeated work.  [caching:false] (the [LP_NO_ANALYSIS_CACHE=1]
    escape hatch) recomputes every query, which is the reference
    behaviour the cache is checked against. *)

module Prog = Lp_ir.Prog
module Machine = Lp_machine.Machine
module Obs = Lp_obs.Obs

(** The registered per-function analyses.  Constructor names double as
    the vocabulary of pass [preserves] declarations. *)
type kind = Cfg | Dominators | Liveness | Loops | Est

let all_kinds = [ Cfg; Dominators; Liveness; Loops; Est ]

let kind_name = function
  | Cfg -> "cfg"
  | Dominators -> "doms"
  | Liveness -> "liveness"
  | Loops -> "loops"
  | Est -> "est"

type value =
  | V_cfg of Cfg.t
  | V_doms of Dominators.t
  | V_live of Liveness.t
  | V_loops of Loops.loop list

type entry = {
  mutable e_version : int;  (** {!Prog.version} of the function at compute *)
  e_value : value;
}

type stats = { hits : int; misses : int; invalidations : int }

type t = {
  prog : Prog.t;
  caching : bool;
  obs : Obs.t;
  table : (string * kind, entry) Hashtbl.t;  (** per-function results *)
  est : (string * string, int * Est.func_est) Hashtbl.t;
      (** (fname, machine) -> (prog_version, estimate) *)
  mutable comp : (int * Compuse.t) option;  (** prog_version-stamped *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

let create ?(obs = Obs.disabled) ?(caching = true) (prog : Prog.t) : t =
  {
    prog;
    caching;
    obs;
    table = Hashtbl.create 64;
    est = Hashtbl.create 16;
    comp = None;
    hits = 0;
    misses = 0;
    invalidations = 0;
  }

let prog t = t.prog
let caching t = t.caching
let stats t = { hits = t.hits; misses = t.misses; invalidations = t.invalidations }

let hit t =
  t.hits <- t.hits + 1;
  Obs.add t.obs "analysis.cache_hits" 1

let miss t =
  t.misses <- t.misses + 1;
  Obs.add t.obs "analysis.cache_misses" 1

(* ------------------------------------------------------------------ *)
(* Per-function analyses                                               *)
(* ------------------------------------------------------------------ *)

(** Valid cached value, or [None] (counting the hit / miss).  A stale
    entry (function version moved on) counts as a miss and is dropped. *)
let lookup t (f : Prog.func) (k : kind) : value option =
  if not t.caching then begin
    miss t;
    None
  end
  else
    let key = (f.Prog.fname, k) in
    match Hashtbl.find_opt t.table key with
    | Some e when e.e_version = Prog.version f ->
      hit t;
      Some e.e_value
    | Some _ ->
      Hashtbl.remove t.table key;
      miss t;
      None
    | None ->
      miss t;
      None

let store t (f : Prog.func) (k : kind) (v : value) : unit =
  if t.caching then
    Hashtbl.replace t.table (f.Prog.fname, k)
      { e_version = Prog.version f; e_value = v }

let cfg t (f : Prog.func) : Cfg.t =
  match lookup t f Cfg with
  | Some (V_cfg c) -> c
  | Some _ -> assert false
  | None ->
    let c = Cfg.build f in
    store t f Cfg (V_cfg c);
    c

let dominators t (f : Prog.func) : Dominators.t =
  match lookup t f Dominators with
  | Some (V_doms d) -> d
  | Some _ -> assert false
  | None ->
    let d = Dominators.compute_of_cfg (cfg t f) in
    store t f Dominators (V_doms d);
    d

let liveness t (f : Prog.func) : Liveness.t =
  match lookup t f Liveness with
  | Some (V_live l) -> l
  | Some _ -> assert false
  | None ->
    let l = Liveness.compute_of_cfg (cfg t f) in
    store t f Liveness (V_live l);
    l

let loops t (f : Prog.func) : Loops.loop list =
  match lookup t f Loops with
  | Some (V_loops ls) -> ls
  | Some _ -> assert false
  | None ->
    let ls = Loops.find_of ~cfg:(cfg t f) ~doms:(dominators t f) in
    store t f Loops (V_loops ls);
    ls

(* ------------------------------------------------------------------ *)
(* Program-level analyses                                              *)
(* ------------------------------------------------------------------ *)

let func_est t (m : Machine.t) (f : Prog.func) : Est.func_est =
  let pv = Prog.prog_version t.prog in
  let key = (f.Prog.fname, m.Machine.name) in
  match Hashtbl.find_opt t.est key with
  | Some (v, e) when t.caching && v = pv ->
    hit t;
    e
  | _ ->
    miss t;
    let e = Est.func_estimate ~find_loops:(loops t) m t.prog f in
    if t.caching then Hashtbl.replace t.est key (pv, e);
    e

(** Not memoized per loop (loops are structural values, not stable
    keys); still serves its loop forests from the cache. *)
let loop_est t (m : Machine.t) (f : Prog.func) (l : Loops.loop) : Est.func_est =
  Est.loop_estimate ~find_loops:(loops t) m t.prog f l

let compuse t : Compuse.t =
  let pv = Prog.prog_version t.prog in
  match t.comp with
  | Some (v, c) when t.caching && v = pv ->
    hit t;
    c
  | _ ->
    miss t;
    let c = Compuse.compute t.prog in
    if t.caching then t.comp <- Some (pv, c);
    c

(* ------------------------------------------------------------------ *)
(* Invalidation                                                        *)
(* ------------------------------------------------------------------ *)

(** Called by the pass manager after a pass changed [f].  Entries for
    analyses in [preserves] are re-stamped to [f]'s current version (the
    pass guarantees they still hold); the rest are dropped.  Program-
    level entries are stamped with [prog_version] and expire on their
    own, so they need no handling here. *)
let invalidate t ?(preserves = []) (f : Prog.func) : unit =
  if t.caching then begin
    let v = Prog.version f in
    List.iter
      (fun k ->
        let key = (f.Prog.fname, k) in
        match Hashtbl.find_opt t.table key with
        | None -> ()
        | Some e ->
          if List.mem k preserves then e.e_version <- v
          else begin
            Hashtbl.remove t.table key;
            t.invalidations <- t.invalidations + 1;
            Obs.add t.obs "analysis.invalidations" 1
          end)
      all_kinds
  end

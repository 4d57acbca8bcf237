(** Power-decision audit report (see report.mli for the model).

    Implementation notes.  A report is a mutex-protected accumulator of
    (scope, event) pairs; scopes live in domain-local storage so the
    evaluation matrix can emit from its whole pool without threading a
    label through every transform.  [to_json] stable-sorts by scope:
    which domain evaluated which matrix cell depends on the pool size,
    but each cell runs its pipeline sequentially inside one domain, so
    sorting by scope (and keeping within-scope emission order) makes the
    exported report deterministic whatever [--jobs] was. *)

module J = Lp_util.Json

type gate_kind = Loop_gate | Entry_gate

type decision =
  | Pattern_verdict of {
      pv_func : string;
      pv_verdict : string;
      pv_kind : string option;
      pv_origin : string option;
      pv_reason : string option;
    }
  | Gating_insert of {
      gi_func : string;
      gi_site : string;
      gi_kind : gate_kind;
      gi_components : string list;
      gi_suppressed : string list;
      gi_below_break_even : string list;
      gi_est_cycles : float;
      gi_landings : int;
    }
  | Gating_merge of {
      gm_func : string;
      gm_block : int;
      gm_rule : string;
      gm_components : string list;
    }
  | Dvfs_decision of {
      dv_func : string;
      dv_site : string;
      dv_core_class : string;
      dv_ladder : string;
      dv_mu : float;
      dv_est_cycles : float;
      dv_chosen : int option;
      dv_rejected : (string * string) list;
      dv_reason : string option;
    }
  | Pass_delta of {
      pd_pass : string;
      pd_run : int;
      pd_changes : int;
      pd_instrs_before : int;
      pd_instrs_after : int;
    }

type sim_record = {
  sr_duration_ns : float;
  sr_instrs : int;
  sr_implicit_wakeups : int;
  sr_gate_transitions : int;
  sr_dvfs_transitions : int;
  sr_energy : J.t;
  sr_core_energy : J.t list;
  sr_predecode : bool;
}

type t = {
  on : bool;
  mutex : Mutex.t;
  (* All three lists are kept newest-first; accessors reverse. *)
  mutable decisions : (string * decision) list;
  mutable sims : (string * sim_record) list;
  mutable warnings : string list;
}

let disabled =
  { on = false; mutex = Mutex.create (); decisions = []; sims = [];
    warnings = [] }

let create () =
  { on = true; mutex = Mutex.create (); decisions = []; sims = [];
    warnings = [] }

let enabled t = t.on

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)
(* ------------------------------------------------------------------ *)

let scope_key : string Domain.DLS.key = Domain.DLS.new_key (fun () -> "")

let current_scope () = Domain.DLS.get scope_key

let with_scope name f =
  let prev = Domain.DLS.get scope_key in
  Domain.DLS.set scope_key name;
  Fun.protect ~finally:(fun () -> Domain.DLS.set scope_key prev) f

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let add t d =
  if t.on then
    let scope = current_scope () in
    locked t (fun () -> t.decisions <- (scope, d) :: t.decisions)

let add_sim t sr =
  if t.on then
    let scope = current_scope () in
    locked t (fun () -> t.sims <- (scope, sr) :: t.sims)

let warn t msg =
  if t.on then locked t (fun () -> t.warnings <- msg :: t.warnings)

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

(* Stable sort by scope, preserving within-scope emission order: the
   raw lists are newest-first, so reverse before sorting. *)
let by_scope pairs =
  List.stable_sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.rev pairs)

let decisions t = locked t (fun () -> by_scope t.decisions)
let sims t = locked t (fun () -> by_scope t.sims)
let warnings t = locked t (fun () -> List.sort String.compare t.warnings)

let implicit_wakeups t =
  locked t (fun () ->
      List.fold_left
        (fun acc (_, sr) -> acc + sr.sr_implicit_wakeups)
        0 t.sims)

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let str_list xs = J.List (List.map (fun s -> J.Str s) xs)

let opt_str = function Some s -> J.Str s | None -> J.Null

let gate_kind_to_string = function
  | Loop_gate -> "loop"
  | Entry_gate -> "entry"

let decision_to_json scope d =
  let fields =
    match d with
    | Pattern_verdict p ->
      [ ("event", J.Str "pattern_verdict");
        ("func", J.Str p.pv_func);
        ("verdict", J.Str p.pv_verdict);
        ("kind", opt_str p.pv_kind);
        ("origin", opt_str p.pv_origin);
        ("reason", opt_str p.pv_reason) ]
    | Gating_insert g ->
      [ ("event", J.Str "gating_insert");
        ("func", J.Str g.gi_func);
        ("site", J.Str g.gi_site);
        ("kind", J.Str (gate_kind_to_string g.gi_kind));
        ("components", str_list g.gi_components);
        ("suppressed_by_enclosing", str_list g.gi_suppressed);
        ("below_break_even", str_list g.gi_below_break_even);
        ("est_cycles", J.Num g.gi_est_cycles);
        ("landings", J.Num (float_of_int g.gi_landings)) ]
    | Gating_merge m ->
      [ ("event", J.Str "gating_merge");
        ("func", J.Str m.gm_func);
        ("block", J.Num (float_of_int m.gm_block));
        ("rule", J.Str m.gm_rule);
        ("components", str_list m.gm_components) ]
    | Dvfs_decision v ->
      [ ("event", J.Str "dvfs_decision");
        ("func", J.Str v.dv_func);
        ("site", J.Str v.dv_site);
        ("core_class", J.Str v.dv_core_class);
        ("ladder", J.Str v.dv_ladder);
        ("mu", J.Num v.dv_mu);
        ("est_cycles", J.Num v.dv_est_cycles);
        ( "chosen_level",
          match v.dv_chosen with
          | Some l -> J.Num (float_of_int l)
          | None -> J.Null );
        ( "rejected",
          J.List
            (List.map
               (fun (point, why) ->
                 J.Obj [ ("point", J.Str point); ("reason", J.Str why) ])
               v.dv_rejected) );
        ("reason", opt_str v.dv_reason) ]
    | Pass_delta p ->
      [ ("event", J.Str "pass_delta");
        ("pass", J.Str p.pd_pass);
        ("run", J.Num (float_of_int p.pd_run));
        ("changes", J.Num (float_of_int p.pd_changes));
        ("instrs_before", J.Num (float_of_int p.pd_instrs_before));
        ("instrs_after", J.Num (float_of_int p.pd_instrs_after)) ]
  in
  J.Obj (("scope", J.Str scope) :: fields)

let sim_to_json scope sr =
  J.Obj
    [ ("scope", J.Str scope);
      ("duration_ns", J.Num sr.sr_duration_ns);
      ("instrs", J.Num (float_of_int sr.sr_instrs));
      ("implicit_wakeups", J.Num (float_of_int sr.sr_implicit_wakeups));
      ("gate_transitions", J.Num (float_of_int sr.sr_gate_transitions));
      ("dvfs_transitions", J.Num (float_of_int sr.sr_dvfs_transitions));
      ("sim_predecode", J.Bool sr.sr_predecode);
      ("energy", sr.sr_energy);
      ("per_core_energy", J.List sr.sr_core_energy) ]

let count pred xs =
  List.fold_left (fun n (_, d) -> if pred d then n + 1 else n) 0 xs

let to_json t =
  let ds = decisions t in
  let ss = sims t in
  let ws = warnings t in
  let summary =
    J.Obj
      [ ( "pattern_verdicts",
          J.Num
            (float_of_int
               (count (function Pattern_verdict _ -> true | _ -> false) ds))
        );
        ( "gating_inserts",
          J.Num
            (float_of_int
               (count (function Gating_insert _ -> true | _ -> false) ds)) );
        ( "gating_merges",
          J.Num
            (float_of_int
               (count (function Gating_merge _ -> true | _ -> false) ds)) );
        ( "dvfs_decisions",
          J.Num
            (float_of_int
               (count (function Dvfs_decision _ -> true | _ -> false) ds)) );
        ( "pass_deltas",
          J.Num
            (float_of_int
               (count (function Pass_delta _ -> true | _ -> false) ds)) );
        ("simulations", J.Num (float_of_int (List.length ss)));
        ("implicit_wakeups", J.Num (float_of_int (implicit_wakeups t))) ]
  in
  J.Obj
    [ ("schema", J.Str "lowpower-power-report/1");
      ("summary", summary);
      ("decisions", J.List (List.map (fun (s, d) -> decision_to_json s d) ds));
      ("simulations", J.List (List.map (fun (s, sr) -> sim_to_json s sr) ss));
      ("warnings", str_list ws) ]

let to_string t = J.to_string (to_json t)

let write t ~path = J.write_file ~path (to_string t)

(* ------------------------------------------------------------------ *)
(* Human-readable audit                                                *)
(* ------------------------------------------------------------------ *)

let decision_to_text d =
  let comps cs = String.concat "," cs in
  match d with
  | Pattern_verdict p ->
    let extra =
      match (p.pv_verdict, p.pv_kind, p.pv_reason) with
      | "accepted", Some k, _ ->
        Printf.sprintf "%s%s" k
          (match p.pv_origin with
          | Some o -> Printf.sprintf " (%s)" o
          | None -> "")
      | _, _, Some r -> r
      | _ -> ""
    in
    Printf.sprintf "pattern  %-12s %s %s" p.pv_func p.pv_verdict extra
  | Gating_insert g ->
    let notes =
      (if g.gi_suppressed = [] then []
       else
         [ Printf.sprintf "suppressed-by-enclosing: %s" (comps g.gi_suppressed) ])
      @
      if g.gi_below_break_even = [] then []
      else
        [ Printf.sprintf "below-break-even: %s" (comps g.gi_below_break_even) ]
    in
    Printf.sprintf "gate     %-12s %-10s off={%s} est=%.0fcy landings=%d%s"
      g.gi_func g.gi_site
      (comps g.gi_components)
      g.gi_est_cycles g.gi_landings
      (if notes = [] then "" else " [" ^ String.concat "; " notes ^ "]")
  | Gating_merge m ->
    Printf.sprintf "merge    %-12s b%-9d %s {%s}" m.gm_func m.gm_block
      m.gm_rule (comps m.gm_components)
  | Dvfs_decision v ->
    let verdict =
      match v.dv_chosen with
      | Some l -> Printf.sprintf "level=%d" l
      | None -> (
        match v.dv_reason with
        | Some r -> Printf.sprintf "nominal (%s)" r
        | None -> "nominal")
    in
    let rejected =
      if v.dv_rejected = [] then ""
      else
        Printf.sprintf " rejected=[%s]"
          (String.concat "; "
             (List.map
                (fun (p, why) -> Printf.sprintf "%s: %s" p why)
                v.dv_rejected))
    in
    Printf.sprintf "dvfs     %-12s %-10s class=%s mu=%.2f est=%.0fcy -> %s%s"
      v.dv_func v.dv_site v.dv_core_class v.dv_mu v.dv_est_cycles verdict
      rejected
  | Pass_delta p ->
    Printf.sprintf "pass     %-12s run=%d changes=%d instrs %d -> %d"
      p.pd_pass p.pd_run p.pd_changes p.pd_instrs_before p.pd_instrs_after

let to_text t =
  let buf = Buffer.create 1024 in
  let ds = decisions t in
  let ss = sims t in
  let scopes =
    List.sort_uniq String.compare
      (List.map fst ds @ List.map fst ss)
  in
  List.iter
    (fun scope ->
      Buffer.add_string buf
        (Printf.sprintf "== %s ==\n"
           (if scope = "" then "(no scope)" else scope));
      List.iter
        (fun (s, d) ->
          if s = scope then
            Buffer.add_string buf ("  " ^ decision_to_text d ^ "\n"))
        ds;
      List.iter
        (fun (s, sr) ->
          if s = scope then begin
            Buffer.add_string buf
              (Printf.sprintf
                 "  sim      duration=%.1fns instrs=%d gates=%d dvfs=%d \
                  implicit-wakeups=%d stepper=%s\n"
                 sr.sr_duration_ns sr.sr_instrs sr.sr_gate_transitions
                 sr.sr_dvfs_transitions sr.sr_implicit_wakeups
                 (if sr.sr_predecode then "predecode" else "interp"));
            (match J.member "total_nj" sr.sr_energy with
            | Some (J.Num total) ->
              Buffer.add_string buf
                (Printf.sprintf "  energy   total=%.1fnJ" total);
              (match J.member "by_category" sr.sr_energy with
              | Some (J.Obj cats) ->
                let nonzero =
                  List.filter_map
                    (fun (k, v) ->
                      match v with
                      | J.Num e when e > 0.0 ->
                        Some (Printf.sprintf "%s=%.1f" k e)
                      | _ -> None)
                    cats
                in
                if nonzero <> [] then
                  Buffer.add_string buf
                    (Printf.sprintf " [%s]" (String.concat "; " nonzero))
              | _ -> ());
              Buffer.add_char buf '\n'
            | _ -> ())
          end)
        ss)
    scopes;
  let ws = warnings t in
  if ws <> [] then begin
    Buffer.add_string buf "== warnings ==\n";
    List.iter (fun w -> Buffer.add_string buf ("  " ^ w ^ "\n")) ws
  end;
  Buffer.contents buf

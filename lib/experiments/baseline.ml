(** The benchmark regression baseline (the [--check-baseline] gate).

    A baseline file is a committed snapshot of the two simulated metrics
    every evaluation cell produces — total compute cycles and energy in
    nanojoules — per matrix cell and aggregated per experiment.
    Simulation is fully deterministic (same cycles and energy on every
    host and pool size), so the default tolerances are tiny: the gate
    exists to catch {e semantic} drift — a transform that silently
    starts burning more energy — not measurement noise.

    Only increases fail the gate.  Improvements are reported but pass:
    committing the improved numbers is a deliberate follow-up
    ([--write-baseline]), not a CI failure. *)

module J = Lp_util.Json

type cell_row = {
  c_workload : string;
  c_config : string;
  c_machine : string;
  c_cycles : float;
  c_energy_nj : float;
}

type exp_row = {
  e_id : string;
  e_cycles : float;
  e_energy_nj : float;
  e_cells : int;
}

type t = {
  cycles_tol : float;   (** allowed relative increase in cycles *)
  energy_tol : float;   (** allowed relative increase in energy *)
  exps : exp_row list;
  cells : cell_row list;
}

(* Deterministic simulation: these absorb only float round-trip noise,
   which %.17g printing already eliminates, so effectively zero. *)
let default_cycles_tol = 1e-9
let default_energy_tol = 1e-9

let schema = "lowpower-bench-baseline/1"

(* ------------------------------------------------------------------ *)
(* Construction from a finished run                                    *)
(* ------------------------------------------------------------------ *)

let cell_rows_of_metrics metrics =
  List.map
    (fun ((w, c, m), cycles, energy) ->
      { c_workload = w; c_config = c; c_machine = m; c_cycles = cycles;
        c_energy_nj = energy })
    metrics

let make ~exps ~cells =
  { cycles_tol = default_cycles_tol; energy_tol = default_energy_tol; exps;
    cells }

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let to_json t =
  J.Obj
    [
      ("schema", J.Str schema);
      ( "tolerances",
        J.Obj
          [ ("cycles", J.Num t.cycles_tol); ("energy_nj", J.Num t.energy_tol) ]
      );
      ( "experiments",
        J.List
          (List.map
             (fun e ->
               J.Obj
                 [ ("id", J.Str e.e_id);
                   ("cycles", J.Num e.e_cycles);
                   ("energy_nj", J.Num e.e_energy_nj);
                   ("cells", J.Num (float_of_int e.e_cells)) ])
             t.exps) );
      ( "cells",
        J.List
          (List.map
             (fun c ->
               J.Obj
                 [ ("workload", J.Str c.c_workload);
                   ("config", J.Str c.c_config);
                   ("machine", J.Str c.c_machine);
                   ("cycles", J.Num c.c_cycles);
                   ("energy_nj", J.Num c.c_energy_nj) ])
             t.cells) );
    ]

let write t ~path = J.write_file ~path (J.to_string (to_json t))

let field_str name j =
  match Option.bind (J.member name j) J.to_string_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing string field %S" name)

let field_num name j =
  match Option.bind (J.member name j) J.to_float_opt with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "missing numeric field %S" name)

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = map_result f xs in
    Ok (y :: ys)

let of_json j =
  let* s = field_str "schema" j in
  if s <> schema then
    Error (Printf.sprintf "unsupported baseline schema %S (want %S)" s schema)
  else
    let tol name fallback =
      match J.member "tolerances" j with
      | Some t -> (
        match Option.bind (J.member name t) J.to_float_opt with
        | Some x -> x
        | None -> fallback)
      | None -> fallback
    in
    let* exps =
      map_result
        (fun e ->
          let* e_id = field_str "id" e in
          let* e_cycles = field_num "cycles" e in
          let* e_energy_nj = field_num "energy_nj" e in
          let* cells = field_num "cells" e in
          Ok { e_id; e_cycles; e_energy_nj; e_cells = int_of_float cells })
        (match J.member "experiments" j with Some l -> J.to_list l | None -> [])
    in
    let* cells =
      map_result
        (fun c ->
          let* c_workload = field_str "workload" c in
          let* c_config = field_str "config" c in
          let* c_machine = field_str "machine" c in
          let* c_cycles = field_num "cycles" c in
          let* c_energy_nj = field_num "energy_nj" c in
          Ok { c_workload; c_config; c_machine; c_cycles; c_energy_nj })
        (match J.member "cells" j with Some l -> J.to_list l | None -> [])
    in
    Ok
      {
        cycles_tol = tol "cycles" default_cycles_tol;
        energy_tol = tol "energy_nj" default_energy_tol;
        exps;
        cells;
      }

let load ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text -> (
    match J.of_string_opt text with
    | None -> Error (Printf.sprintf "%s: not valid JSON" path)
    | Some j -> (
      match of_json j with
      | Ok t -> Ok t
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)))

(* ------------------------------------------------------------------ *)
(* The check                                                           *)
(* ------------------------------------------------------------------ *)

(** One metric that moved: [delta_rel] is the relative change against
    the baseline value ([> 0] = worse: more cycles / more energy). *)
type delta = {
  d_what : string;   (** cell key or experiment id *)
  d_metric : string; (** ["cycles"] or ["energy_nj"] *)
  d_base : float;
  d_cur : float;
  d_rel : float;
}

type verdict = {
  regressions : delta list;  (** increases beyond tolerance — gate fails *)
  improvements : delta list; (** decreases beyond tolerance — informational *)
  notes : string list;
      (** coverage differences: baseline rows this run did not evaluate,
          rows the baseline does not know *)
}

let rel ~base ~cur =
  if base = 0.0 then (if cur = 0.0 then 0.0 else Float.infinity)
  else (cur -. base) /. base

let classify ~tol ~what ~metric ~base ~cur (v : verdict) =
  let r = rel ~base ~cur in
  let d = { d_what = what; d_metric = metric; d_base = base; d_cur = cur;
            d_rel = r } in
  if r > tol then { v with regressions = d :: v.regressions }
  else if r < -.tol then { v with improvements = d :: v.improvements }
  else v

(** Compare a finished run against the baseline.  [cells] is the run's
    {!Exp_common.cell_metrics} snapshot; [exps] its per-experiment
    aggregation.  Per-experiment totals are only compared when the run
    evaluated the same experiment set the baseline recorded: the memo
    cache attributes a shared cell to whichever experiment ran it first,
    so totals only line up when the experiment list does. *)
let check t ~(exps : exp_row list) ~(cells : cell_row list) : verdict =
  let v = { regressions = []; improvements = []; notes = [] } in
  let key c = (c.c_workload, c.c_config, c.c_machine) in
  let cell_name c =
    Printf.sprintf "%s/%s@%s" c.c_workload c.c_config c.c_machine
  in
  let v =
    List.fold_left
      (fun v bc ->
        match List.find_opt (fun c -> key c = key bc) cells with
        | None ->
          { v with
            notes =
              Printf.sprintf "cell %s in baseline but not evaluated this run"
                (cell_name bc)
              :: v.notes }
        | Some c ->
          let v =
            classify ~tol:t.cycles_tol ~what:(cell_name bc) ~metric:"cycles"
              ~base:bc.c_cycles ~cur:c.c_cycles v
          in
          classify ~tol:t.energy_tol ~what:(cell_name bc) ~metric:"energy_nj"
            ~base:bc.c_energy_nj ~cur:c.c_energy_nj v)
      v t.cells
  in
  let v =
    List.fold_left
      (fun v c ->
        if List.exists (fun bc -> key bc = key c) t.cells then v
        else
          { v with
            notes =
              Printf.sprintf "cell %s not in baseline (new workload/config?)"
                (cell_name c)
              :: v.notes })
      v cells
  in
  let ids rows = List.sort compare (List.map (fun e -> e.e_id) rows) in
  let v =
    if ids exps = ids t.exps then
      List.fold_left
        (fun v be ->
          match List.find_opt (fun e -> e.e_id = be.e_id) exps with
          | None -> v
          | Some e ->
            let what = "experiment " ^ be.e_id in
            let v =
              classify ~tol:t.cycles_tol ~what ~metric:"cycles"
                ~base:be.e_cycles ~cur:e.e_cycles v
            in
            classify ~tol:t.energy_tol ~what ~metric:"energy_nj"
              ~base:be.e_energy_nj ~cur:e.e_energy_nj v)
        v t.exps
    else
      { v with
        notes =
          "experiment set differs from baseline; per-experiment totals not \
           compared (cell-level rows still checked)"
          :: v.notes }
  in
  {
    regressions = List.rev v.regressions;
    improvements = List.rev v.improvements;
    notes = List.rev v.notes;
  }

let passed v = v.regressions = []

(** Render the verdict as the regression table the gate prints. *)
let verdict_to_string (v : verdict) : string =
  let buf = Buffer.create 256 in
  let row (d : delta) tag =
    Buffer.add_string buf
      (Printf.sprintf "  %-9s %-40s %-10s %16s -> %16s  %+.4f%%\n" tag
         d.d_what d.d_metric
         (J.num_to_string d.d_base)
         (J.num_to_string d.d_cur)
         (d.d_rel *. 100.0))
  in
  if v.regressions <> [] then begin
    Buffer.add_string buf "baseline regressions:\n";
    List.iter (fun d -> row d "WORSE") v.regressions
  end;
  if v.improvements <> [] then begin
    Buffer.add_string buf "baseline improvements (informational):\n";
    List.iter (fun d -> row d "better") v.improvements
  end;
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "  note: %s\n" n))
    v.notes;
  if passed v then
    Buffer.add_string buf
      (if v.improvements = [] && v.notes = [] then
         "baseline check: OK (all metrics within tolerance)\n"
       else "baseline check: OK\n")
  else
    Buffer.add_string buf
      (Printf.sprintf "baseline check: FAILED (%d regression(s))\n"
         (List.length v.regressions));
  Buffer.contents buf

(** Wire protocol of the [lpccd] compile server (see the interface). *)

module Json = Lp_util.Json
module Diag = Lp_util.Diag
module Machine = Lp_machine.Machine
module Compile = Lowpower.Compile
module Pipeline = Lowpower.Pipeline
module Pattern = Lp_patterns.Pattern
module Prog = Lp_ir.Prog
module Ledger = Lp_power.Energy_ledger

let code_decode = "E_DECODE"
let code_overload = "E_OVERLOAD"
let code_version = "E_VERSION"

let decode_error fmt =
  Format.kasprintf
    (fun message -> Error (Diag.make Diag.Serve ~code:code_decode message))
    fmt

let version_error fmt =
  Format.kasprintf
    (fun message -> Error (Diag.make Diag.Serve ~code:code_version message))
    fmt

(* Version negotiation (docs/SERVING.md): a request without a "version"
   field is version 1 — the PR 7 wire format, whose replies must stay
   byte-identical.  Version 2 adds the "tune" op and echoes "version"
   in the reply.  Anything else is a stable E_VERSION diagnostic. *)
let current_version = 2
let version_supported v = v = 1 || v = current_version

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type op =
  | Ping | Compile | Run | Explain | Pipeline | Stats | Shutdown | Tune
  | Profile

let op_name = function
  | Ping -> "ping"
  | Compile -> "compile"
  | Run -> "run"
  | Explain -> "explain"
  | Pipeline -> "pipeline"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Tune -> "tune"
  | Profile -> "profile"

let op_of_name = function
  | "ping" -> Some Ping
  | "compile" -> Some Compile
  | "run" -> Some Run
  | "explain" -> Some Explain
  | "pipeline" -> Some Pipeline
  | "stats" -> Some Stats
  | "shutdown" -> Some Shutdown
  | "tune" -> Some Tune
  | "profile" -> Some Profile
  | _ -> None

type source = Inline of string | Workload of string | No_source

type request = {
  id : Json.t;
  version : int option;
  op : op;
  src : source;
  machine : string;
  cores : int;
  config : string;
  passes : string option;
  deadline_ms : int option;
  budget : int option;
  seed : int option;
}

let default_request =
  {
    id = Json.Null;
    version = None;
    op = Ping;
    src = No_source;
    machine = "generic";
    cores = 4;
    config = "full";
    passes = None;
    deadline_ms = None;
    budget = None;
    seed = None;
  }

(* typed field extraction; any mismatch is an [Error _] with E_DECODE *)

let str_field obj name default =
  match Json.member name obj with
  | None | Some Json.Null -> Ok default
  | Some (Json.Str s) -> Ok s
  | Some _ -> decode_error "field %S must be a string" name

let opt_str_field obj name =
  match Json.member name obj with
  | None | Some Json.Null -> Ok None
  | Some (Json.Str s) -> Ok (Some s)
  | Some _ -> decode_error "field %S must be a string" name

let opt_pos_int_field obj name ~max =
  match Json.member name obj with
  | None | Some Json.Null -> Ok None
  | Some (Json.Num f) ->
    let n = int_of_float f in
    if Float.is_integer f && n >= 1 && n <= max then Ok (Some n)
    else decode_error "field %S must be an integer in [1, %d]" name max
  | Some _ -> decode_error "field %S must be an integer" name

let ( let* ) = Result.bind

let request_of_frame line =
  match Json.of_string_opt line with
  | None -> decode_error "frame is not valid JSON"
  | Some (Json.Obj _ as obj) ->
    (* version is negotiated before anything else so that a v3 client
       gets E_VERSION rather than a confusing op/field diagnostic *)
    let* version =
      match Json.member "version" obj with
      | None | Some Json.Null -> Ok None
      | Some (Json.Num f) when Float.is_integer f ->
        let v = int_of_float f in
        if version_supported v then Ok (Some v)
        else
          version_error "unsupported protocol version %d (server speaks 1-%d)"
            v current_version
      | Some _ -> decode_error "field \"version\" must be an integer"
    in
    let* op_str =
      match Json.member "op" obj with
      | Some (Json.Str s) -> Ok s
      | Some _ -> decode_error "field \"op\" must be a string"
      | None -> decode_error "missing field \"op\""
    in
    let* op =
      match op_of_name op_str with
      | Some op -> Ok op
      | None -> decode_error "unknown op %S" op_str
    in
    let* () =
      match op with
      | (Tune | Profile) when Option.value ~default:1 version < 2 ->
        version_error "op %S requires protocol version 2" op_str
      | _ -> Ok ()
    in
    let id = Option.value ~default:Json.Null (Json.member "id" obj) in
    let* inline = opt_str_field obj "source" in
    let* workload = opt_str_field obj "workload" in
    let* src =
      match (op, inline, workload) with
      | (Compile | Run | Explain | Tune | Profile), Some _, Some _ ->
        decode_error "give either \"source\" or \"workload\", not both"
      | (Compile | Run | Explain | Tune | Profile), Some s, None ->
        Ok (Inline s)
      | (Compile | Run | Explain | Tune | Profile), None, Some w ->
        Ok (Workload w)
      | (Compile | Run | Explain | Tune | Profile), None, None ->
        decode_error "op %S needs a \"source\" or \"workload\"" op_str
      | (Ping | Pipeline | Stats | Shutdown), _, _ -> Ok No_source
    in
    let* machine = str_field obj "machine" default_request.machine in
    let* cores = opt_pos_int_field obj "cores" ~max:1024 in
    let cores = Option.value ~default:default_request.cores cores in
    let* config = str_field obj "config" default_request.config in
    let* passes = opt_str_field obj "passes" in
    let* deadline_ms = opt_pos_int_field obj "deadline_ms" ~max:86_400_000 in
    let* budget = opt_pos_int_field obj "budget" ~max:10_000 in
    let* seed = opt_pos_int_field obj "seed" ~max:max_int in
    Ok
      {
        id;
        version;
        op;
        src;
        machine;
        cores;
        config;
        passes;
        deadline_ms;
        budget;
        seed;
      }
  | Some _ -> decode_error "frame must be a JSON object"

let frame_id line =
  match Json.of_string_opt line with
  | Some (Json.Obj _ as obj) ->
    Option.value ~default:Json.Null (Json.member "id" obj)
  | _ -> Json.Null

let opt_int_fields fields =
  List.concat_map
    (fun (name, v) ->
      match v with
      | Some n -> [ (name, Json.Num (float_of_int n)) ]
      | None -> [])
    fields

let frame_of_request r =
  let fields =
    [ ("id", r.id) ]
    @ opt_int_fields [ ("version", r.version) ]
    @ [ ("op", Json.Str (op_name r.op)) ]
    @ (match r.src with
      | Inline s -> [ ("source", Json.Str s) ]
      | Workload w -> [ ("workload", Json.Str w) ]
      | No_source -> [])
    @ [
        ("machine", Json.Str r.machine);
        ("cores", Json.Num (float_of_int r.cores));
        ("config", Json.Str r.config);
      ]
    @ (match r.passes with
      | Some p -> [ ("passes", Json.Str p) ]
      | None -> [])
    @ opt_int_fields
        [
          ("deadline_ms", r.deadline_ms);
          ("budget", r.budget);
          ("seed", r.seed);
        ]
  in
  Json.to_compact_string (Json.Obj fields) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

(* [version] is echoed only when the request carried one: v1 clients
   (and serve-bench --verify golden replies) keep byte-identical frames *)
let ok_frame ~id ~op ?version ?(cached = false) payload =
  let fields =
    [ ("id", id) ]
    @ opt_int_fields [ ("version", version) ]
    @ [ ("ok", Json.Bool true); ("op", Json.Str (op_name op)) ]
    @ (if cached then [ ("cached", Json.Bool true) ] else [])
    @ payload
  in
  Json.to_compact_string (Json.Obj fields) ^ "\n"

let err_frame ~id ?version (d : Diag.t) =
  let fields =
    [ ("id", id) ]
    @ opt_int_fields [ ("version", version) ]
    @ [
        ("ok", Json.Bool false);
        ("code", Json.Str d.Diag.code);
        ("stage", Json.Str (Diag.stage_name d.Diag.stage));
        ("message", Json.Str d.Diag.message);
        ("transient", Json.Bool d.Diag.transient);
      ]
    @
    match d.Diag.line with
    | Some l -> [ ("line", Json.Num (float_of_int l)) ]
    | None -> []
  in
  Json.to_compact_string (Json.Obj fields) ^ "\n"

type reply = {
  r_id : Json.t;
  r_ok : bool;
  r_code : string option;
  r_transient : bool;
  r_payload : Json.t;
}

let reply_of_frame line =
  match Json.of_string_opt line with
  | None -> Error "reply is not valid JSON"
  | Some (Json.Obj _ as obj) -> (
    match Json.member "ok" obj with
    | Some (Json.Bool ok) ->
      Ok
        {
          r_id = Option.value ~default:Json.Null (Json.member "id" obj);
          r_ok = ok;
          r_code =
            (match Json.member "code" obj with
            | Some (Json.Str c) -> Some c
            | _ -> None);
          r_transient =
            (match Json.member "transient" obj with
            | Some (Json.Bool b) -> b
            | _ -> false);
          r_payload = obj;
        }
    | _ -> Error "reply has no boolean \"ok\" field")
  | Some _ -> Error "reply is not a JSON object"

(* ------------------------------------------------------------------ *)
(* Request resolution                                                  *)
(* ------------------------------------------------------------------ *)

let resolve_target (r : request) =
  let* machine =
    match Machine.of_name ~cores:(max r.cores 4) r.machine with
    | Some m -> Ok m
    | None -> decode_error "unknown machine %S" r.machine
  in
  (* silent clamp: the protocol promises best-effort resolution, and the
     reply carries the machine actually used *)
  let cores = Machine.clamp_cores ~warn:false machine r.cores in
  let* opts =
    match List.assoc_opt r.config (Compile.configs ~n_cores:cores) with
    | Some opts -> Ok opts
    | None -> decode_error "unknown config %S" r.config
  in
  match r.passes with
  | None -> Ok (machine, opts)
  | Some spec -> (
    (* inline spec or @FILE; failures keep their own stable
       E_PIPELINE_SPEC code rather than degrading to E_DECODE *)
    match Pipeline.resolve_spec spec with
    | Ok p -> Ok (machine, Compile.Options.update ~pipeline:p opts)
    | Error d -> Error d)

let resolve_source (r : request) =
  match r.src with
  | Inline s -> Ok (s, "inline")
  | Workload name -> (
    match Lp_workloads.Suite.find name with
    | Some w -> Ok (w.Lp_workloads.Workload.source, name)
    | None -> decode_error "unknown workload %S" name)
  | No_source -> decode_error "op %S has no program" (op_name r.op)

(* ------------------------------------------------------------------ *)
(* Payload rendering (shared with serve-bench --verify)                *)
(* ------------------------------------------------------------------ *)

let num n = Json.Num (float_of_int n)

let counts_json (c : Lp_transforms.Gating.counts) =
  Json.Obj
    [
      ("off", num c.Lp_transforms.Gating.off_instrs);
      ("on", num c.Lp_transforms.Gating.on_instrs);
      ("toggled", num c.Lp_transforms.Gating.components_toggled);
    ]

let payload_of_compiled (c : Compile.compiled) =
  let prog = c.Compile.prog in
  (* hashtable order is not deterministic; sort by function name *)
  let funcs =
    List.sort compare
      (Hashtbl.fold
         (fun name f acc -> (name, Prog.instr_count f) :: acc)
         prog.Prog.funcs [])
  in
  let instrs = List.fold_left (fun acc (_, n) -> acc + n) 0 funcs in
  [
    ("machine", Json.Str c.Compile.machine.Machine.name);
    ("funcs", num (List.length funcs));
    ("instrs", num instrs);
    ( "patterns",
      Json.List
        (List.map
           (fun (i : Pattern.instance) ->
             Json.Obj
               [
                 ("kind", Json.Str (Pattern.kind_name i.Pattern.kind));
                 ("func", Json.Str i.Pattern.in_func);
                 ( "origin",
                   Json.Str
                     (match i.Pattern.origin with
                     | Pattern.Annotated -> "annotated"
                     | Pattern.Inferred -> "inferred") );
               ])
           c.Compile.detection.Pattern.instances) );
    ( "passes",
      Json.List
        (List.map
           (fun (s : Lp_transforms.Pass.stats) ->
             Json.Obj
               [
                 ("name", Json.Str s.Lp_transforms.Pass.pass_name);
                 ("runs", num s.Lp_transforms.Pass.runs);
                 (* no wall-clock seconds: payloads must be deterministic *)
                 ("changes", num s.Lp_transforms.Pass.changes);
               ])
           c.Compile.pass_stats) );
    ("gating_before", counts_json c.Compile.gating_before_merge);
    ("gating_after", counts_json c.Compile.gating_after_merge);
  ]

let payload_of_run (c : Compile.compiled) (o : Lp_sim.Sim.outcome) =
  payload_of_compiled c
  @ [
      ( "ret",
        match o.Lp_sim.Sim.ret with
        | None -> Json.Null
        | Some (Lp_sim.Value.Vint i) -> num i
        | Some (Lp_sim.Value.Vfloat f) -> Json.Num f );
      ("duration_ns", Json.Num o.Lp_sim.Sim.duration_ns);
      ("energy_nj", Json.Num (Ledger.total o.Lp_sim.Sim.energy));
      ( "energy_by_category",
        Json.Obj
          (List.map
             (fun cat ->
               ( Ledger.category_to_string cat,
                 Json.Num (Ledger.of_category o.Lp_sim.Sim.energy cat) ))
             Ledger.all_categories) );
      ("instr_total", num o.Lp_sim.Sim.instr_total);
      ("steps", num o.Lp_sim.Sim.steps);
      ("implicit_wakeups", num o.Lp_sim.Sim.implicit_wakeups);
      ("gate_transitions", num o.Lp_sim.Sim.gate_transitions);
      ("dvfs_transitions", num o.Lp_sim.Sim.dvfs_transitions);
      ("channel_msgs", num o.Lp_sim.Sim.channel_msgs);
    ]

let payload_of_explain rep =
  [ ("report", Json.Str (Lp_obs.Report.to_text rep)) ]

let payload_of_pipeline ~passes =
  match passes with
  | None ->
    Ok
      [
        ("pipeline", Json.Str (Pipeline.to_string Pipeline.default));
        ( "available",
          Json.List (List.map (fun n -> Json.Str n) (Pipeline.pass_names ()))
        );
      ]
  | Some spec -> (
    match Pipeline.resolve_spec spec with
    | Ok p -> Ok [ ("pipeline", Json.Str (Pipeline.to_string p)) ]
    | Error d -> Error d)

(* the whole lowpower-profile/1 artifact, verbatim: extracting the
   "profile" member and re-serialising it with [Json.to_string] yields
   the exact bytes `lpcc profile --json` writes (same builder, same
   serialiser) *)
let payload_of_profile ~source (c : Compile.compiled)
    (o : Lp_sim.Sim.outcome) =
  [
    ( "profile",
      Lowpower.Profile_report.to_json ~source
        ~machine:c.Compile.machine.Machine.name o );
  ]

let payload_of_tune (r : Lp_tune.Tune.workload_result) =
  [
    ("workload", Json.Str r.Lp_tune.Tune.tw_workload);
    ("spec", Json.Str r.Lp_tune.Tune.tw_best_spec);
    ( "baseline_energy_nj",
      Json.Num r.Lp_tune.Tune.tw_baseline.Lp_tune.Tune.energy_nj );
    ("tuned_energy_nj", Json.Num r.Lp_tune.Tune.tw_best.Lp_tune.Tune.energy_nj);
    ("improvement_pct", Json.Num (Lp_tune.Tune.improvement_pct r));
    ("improved", Json.Bool (Lp_tune.Tune.improved r));
    ("candidates", num r.Lp_tune.Tune.tw_candidates);
    ("evaluated", num r.Lp_tune.Tune.tw_evaluated);
  ]

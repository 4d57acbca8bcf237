(** The optimisation schedule as data.

    The driver used to hard-code its pass schedule as straight-line code
    inside the [optimize] phase; this module lifts it into a value that
    can be printed ([lpcc pipeline]), overridden from the command line
    ([lpcc run --passes]), and tested for round-tripping.  The
    interpreter ({!execute}) drives the ordinary pass manager, so
    telemetry spans, pass statistics and analysis-cache invalidation are
    identical to what the inline code produced. *)

module T = Lp_transforms

(** Conditions a step can be guarded on (driver option flags). *)
type flag = Mac_fusion

type step =
  | Run of T.Pass.func_pass  (** one pass, once *)
  | Fixpoint of T.Pass.func_pass list
      (** sweep the list until a full sweep changes nothing *)
  | If of flag * step list  (** sub-pipeline guarded by an option flag *)

type t = step list

(* ------------------------------------------------------------------ *)
(* Pass registry                                                       *)
(* ------------------------------------------------------------------ *)

(** Every schedulable pass, in display order. *)
let all_passes : T.Pass.func_pass list =
  [
    T.Const_promote.pass;
    T.Simplify_cfg.pass;
    T.Constfold.pass;
    T.Constprop.pass;
    T.Dce.pass;
    T.Unroll.pass;
    T.Mac_fusion.pass;
    T.Strength.pass;
    T.Licm.pass;
  ]

let pass_names () = List.map (fun p -> p.T.Pass.name) all_passes

let find_pass name =
  List.find_opt (fun p -> p.T.Pass.name = name) all_passes

let flag_name = function Mac_fusion -> "mac-fusion"

(* ------------------------------------------------------------------ *)
(* The default schedule                                                *)
(* ------------------------------------------------------------------ *)

(** The cleanup sub-pipeline: canonicalise the CFG, then let constants
    flow and dead code fall out.  Scheduled to fixpoint after every
    enabling transformation. *)
let cleanup : T.Pass.func_pass list =
  [ T.Simplify_cfg.pass; T.Constfold.pass; T.Constprop.pass; T.Dce.pass ]

(** The driver's classic-optimisation schedule (exactly the historical
    hard-coded one). *)
let default : t =
  [
    Run T.Const_promote.pass;
    Fixpoint cleanup;
    Run T.Unroll.pass;
    Fixpoint cleanup;
    If (Mac_fusion, [ Run T.Mac_fusion.pass; Fixpoint [ T.Constfold.pass; T.Dce.pass ] ]);
    Run T.Strength.pass;
    Fixpoint [ T.Licm.pass; T.Constfold.pass; T.Dce.pass; T.Simplify_cfg.pass ];
  ]

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

(** Run the pipeline through [pm] on [prog].  [mac_fusion] supplies the
    value of the {!Mac_fusion} flag. *)
let execute (pm : T.Pass.manager) ~(mac_fusion : bool) (t : t)
    (prog : Lp_ir.Prog.t) : unit =
  let flag_on = function Mac_fusion -> mac_fusion in
  let rec step = function
    | Run p -> ignore (T.Pass.run_pass pm p prog)
    | Fixpoint ps -> T.Pass.run_to_fixpoint pm ps prog
    | If (fl, steps) -> if flag_on fl then List.iter step steps
  in
  List.iter step t

(* ------------------------------------------------------------------ *)
(* Printing and parsing                                                *)
(* ------------------------------------------------------------------ *)

(** Multi-line rendering, one step per line; [If] bodies are indented
    under an [if <flag> {] / [}] bracket.  This is what [lpcc pipeline]
    prints (and what the CI golden file pins). *)
let to_string (t : t) : string =
  let buf = Buffer.create 256 in
  let rec step indent s =
    let pad = String.make indent ' ' in
    match s with
    | Run p -> Buffer.add_string buf (pad ^ "run " ^ p.T.Pass.name ^ "\n")
    | Fixpoint ps ->
      Buffer.add_string buf
        (pad ^ "fixpoint "
        ^ String.concat " " (List.map (fun p -> p.T.Pass.name) ps)
        ^ "\n")
    | If (fl, steps) ->
      Buffer.add_string buf (pad ^ "if " ^ flag_name fl ^ " {\n");
      List.iter (step (indent + 2)) steps;
      Buffer.add_string buf (pad ^ "}\n")
  in
  List.iter (step 0) t;
  Buffer.contents buf

(** One-line spec syntax (the inverse of {!parse} for flat schedules).
    Raises [Invalid_argument] on [If] steps — a spec replaces the whole
    schedule, so conditional steps are never part of one. *)
let to_spec (t : t) : string =
  let step = function
    | Run p -> p.T.Pass.name
    | Fixpoint ps ->
      "fix(" ^ String.concat "," (List.map (fun p -> p.T.Pass.name) ps) ^ ")"
    | If _ ->
      invalid_arg "Pipeline.to_spec: conditional steps have no spec syntax"
  in
  String.concat "," (List.map step t)

(** Resolve every [If] step under the given flag values, leaving a flat
    [Run]/[Fixpoint] schedule (the shape {!to_spec} can print and the
    tuner mutates). *)
let flatten ~(mac_fusion : bool) (t : t) : t =
  let flag_on = function Mac_fusion -> mac_fusion in
  let rec go = function
    | (Run _ | Fixpoint _) as s -> [ s ]
    | If (fl, body) -> if flag_on fl then List.concat_map go body else []
  in
  List.concat_map go t

let code_spec = "E_PIPELINE_SPEC"

exception Bad_spec of Lp_util.Diag.t

(** One-line spec syntax for [--passes]: comma-separated steps, each a
    pass name or [fix(name,...)]; e.g.
    ["const-promote,fix(simplify-cfg,constfold,constprop,dce),unroll"].
    Conditional steps are not expressible — a spec replaces the whole
    schedule, so the caller decides what is in it.

    Errors come back as an {!Lp_util.Diag.t} with the stable
    [E_PIPELINE_SPEC] code; the message reports the character position
    where the scan stopped and the token the parser expected there. *)
let parse (spec : string) : (t, Lp_util.Diag.t) result =
  let n = String.length spec in
  let fail pos expected msg =
    raise
      (Bad_spec
         (Lp_util.Diag.make Lp_util.Diag.Driver ~code:code_spec
            (Printf.sprintf
               "invalid pipeline spec at character %d: %s (expected %s)" pos
               msg expected)))
  in
  let describe i =
    if i >= n then "end of spec" else Printf.sprintf "%C" spec.[i]
  in
  let is_name_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '-' || c = '_'
  in
  let skip_ws i =
    let j = ref i in
    while !j < n && (spec.[!j] = ' ' || spec.[!j] = '\t') do
      incr j
    done;
    !j
  in
  let scan_name i expected =
    let j = ref i in
    while !j < n && is_name_char spec.[!j] do
      incr j
    done;
    if !j = i then fail i expected ("found " ^ describe i)
    else (String.sub spec i (!j - i), !j)
  in
  let pass_at pos name =
    match find_pass name with
    | Some p -> p
    | None ->
      fail pos "a pass name"
        (Printf.sprintf "unknown pass %S (known: %s)" name
           (String.concat ", " (pass_names ())))
  in
  (* [i] points just past the '(' of a [fix(] group *)
  let rec fix_body i acc =
    let i = skip_ws i in
    let (name, j) = scan_name i "a pass name" in
    let p = pass_at i name in
    let j = skip_ws j in
    if j < n && spec.[j] = ',' then fix_body (j + 1) (p :: acc)
    else if j < n && spec.[j] = ')' then (Fixpoint (List.rev (p :: acc)), j + 1)
    else fail j "',' or ')'" ("found " ^ describe j)
  in
  let step i =
    let i = skip_ws i in
    let (name, j) = scan_name i "a pass name or 'fix(...)'" in
    let j' = skip_ws j in
    if j' < n && spec.[j'] = '(' then
      if name <> "fix" then
        fail i "'fix' before '('" (Printf.sprintf "found group named %S" name)
      else begin
        let j'' = skip_ws (j' + 1) in
        if j'' < n && spec.[j''] = ')' then
          fail j'' "a pass name" "empty fix() group"
        else fix_body (j' + 1) []
      end
    else (Run (pass_at i name), j)
  in
  let rec steps i acc =
    let (s, j) = step i in
    let j = skip_ws j in
    if j >= n then List.rev (s :: acc)
    else if spec.[j] = ',' then steps (j + 1) (s :: acc)
    else fail j "',' or end of spec" ("found " ^ describe j)
  in
  try
    let i = skip_ws 0 in
    if i >= n then
      fail 0 "a pass name or 'fix(...)'" "empty pipeline spec"
    else Ok (steps i [])
  with Bad_spec d -> Error d

(* ------------------------------------------------------------------ *)
(* Schedule files                                                      *)
(* ------------------------------------------------------------------ *)

(** Write [t] as a schedule file: a one-line [#] header carrying the
    schedule's name (and optional comment), then the one-line spec.
    Replayable with [lpcc run --passes @FILE]. *)
let save_file ?(name = "schedule") ?comment (path : string) (t : t) : unit =
  Lp_util.Json.write_file ~path
    (Printf.sprintf "# schedule %s%s\n%s\n" name
       (match comment with None | Some "" -> "" | Some c -> ": " ^ c)
       (to_spec t))

(** Load a schedule file written by {!save_file}: [#] comment lines and
    blank lines are skipped; exactly one spec line must remain.  All
    failures (unreadable file, no/too many spec lines, bad spec) are
    [E_PIPELINE_SPEC] diagnostics. *)
let load_file (path : string) : (t, Lp_util.Diag.t) result =
  let file_err fmt =
    Printf.ksprintf
      (fun m ->
        Error (Lp_util.Diag.make Lp_util.Diag.Driver ~code:code_spec m))
      fmt
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> file_err "cannot read schedule file: %s" msg
  | contents -> (
    let spec_lines =
      String.split_on_char '\n' contents
      |> List.map String.trim
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    in
    match spec_lines with
    | [] -> file_err "schedule file %s has no spec line" path
    | [ spec ] ->
      Result.map_error
        (fun d ->
          {
            d with
            Lp_util.Diag.message =
              Printf.sprintf "in %s: %s" path d.Lp_util.Diag.message;
          })
        (parse spec)
    | _ -> file_err "schedule file %s has more than one spec line" path)

(** Resolve a [--passes] argument: [@FILE] loads a schedule file,
    anything else parses as an inline spec. *)
let resolve_spec (arg : string) : (t, Lp_util.Diag.t) result =
  if String.length arg > 0 && arg.[0] = '@' then
    load_file (String.sub arg 1 (String.length arg - 1))
  else parse arg

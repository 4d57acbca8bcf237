(** The optimisation schedule as data (see docs/DESIGN.md).

    {!default} reproduces the driver's historical hard-coded schedule
    exactly; {!execute} interprets a schedule through the ordinary pass
    manager, so telemetry, pass statistics and analysis-cache
    invalidation behave as if the schedule were still inline code. *)

module T = Lp_transforms

(** Conditions a step can be guarded on (driver option flags). *)
type flag = Mac_fusion

type step =
  | Run of T.Pass.func_pass  (** one pass, once *)
  | Fixpoint of T.Pass.func_pass list
      (** sweep the list until a full sweep changes nothing *)
  | If of flag * step list  (** sub-pipeline guarded by an option flag *)

type t = step list

(** Every schedulable pass, in display order. *)
val all_passes : T.Pass.func_pass list

(** Names of {!all_passes} (the vocabulary of {!parse}). *)
val pass_names : unit -> string list

val find_pass : string -> T.Pass.func_pass option

(** The cleanup sub-pipeline (simplify-cfg, constfold, constprop, dce)
    scheduled to fixpoint after every enabling transformation. *)
val cleanup : T.Pass.func_pass list

(** The driver's default classic-optimisation schedule. *)
val default : t

(** Run the pipeline through [pm] on [prog]; [mac_fusion] supplies the
    {!Mac_fusion} flag value. *)
val execute :
  T.Pass.manager -> mac_fusion:bool -> t -> Lp_ir.Prog.t -> unit

(** Multi-line rendering, one step per line ([lpcc pipeline]). *)
val to_string : t -> string

(** One-line spec rendering, the inverse of {!parse} for flat
    schedules.  Raises [Invalid_argument] on [If] steps, which have no
    spec syntax. *)
val to_spec : t -> string

(** Resolve every [If] step under the given flag values, leaving a flat
    [Run]/[Fixpoint] schedule that {!to_spec} can print. *)
val flatten : mac_fusion:bool -> t -> t

(** Stable diagnostic code for malformed specs and schedule files:
    ["E_PIPELINE_SPEC"]. *)
val code_spec : string

(** Parse the one-line [--passes] spec: comma-separated pass names and
    [fix(name,...)] fixpoint groups.  Conditional steps are not
    expressible in a spec.  Errors are [E_PIPELINE_SPEC] diagnostics
    reporting the character position where the scan stopped and the
    token expected there. *)
val parse : string -> (t, Lp_util.Diag.t) result

(** Write the schedule as a file, atomically: one [#] header line
    (name + optional comment) followed by the one-line spec. *)
val save_file : ?name:string -> ?comment:string -> string -> t -> unit

(** Load a schedule file written by {!save_file}; [#] and blank lines
    are skipped and exactly one spec line must remain.  All failures are
    [E_PIPELINE_SPEC] diagnostics. *)
val load_file : string -> (t, Lp_util.Diag.t) result

(** Resolve a [--passes] argument: [@FILE] loads a schedule file,
    anything else parses as an inline spec. *)
val resolve_spec : string -> (t, Lp_util.Diag.t) result

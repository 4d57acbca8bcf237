(** Structured diagnostics.

    Every failure the pipeline can produce — front-end errors, transform
    self-check failures, verifier rejections, simulator faults, injected
    faults — is represented by one [t] carrying the pipeline stage, a
    stable machine-readable error code (the [E_*] names in
    docs/ROBUSTNESS.md), a human-readable message and, when known, a
    source line.  The legacy per-module exceptions still exist at their
    raise sites; [Lowpower.Compile.diag_of_exn] maps each of them onto a
    diagnostic, and the [*_result] entry points return diagnostics
    instead of raising. *)

(** Pipeline stage a diagnostic originates from. *)
type stage =
  | Lex
  | Parse
  | Typecheck
  | Parallelize
  | Lower
  | Verify
  | Driver      (** the compile driver's own checks *)
  | Simulate
  | Serve       (** the [lpccd] compile server's own failures
                    ([E_DECODE], [E_OVERLOAD]) *)
  | Fault       (** injected by {!Fault} *)
  | Internal    (** unclassified crash captured at a boundary *)

type t = {
  stage : stage;
  code : string;      (** stable machine-readable code, e.g. ["E_PARSE"] *)
  message : string;
  line : int option;  (** source line, when the stage knows one *)
  transient : bool;
      (** a retry may succeed (bounded injected faults, simulated
          transient bus faults); deterministic compile errors are not
          transient *)
}

(** The one exception structured entry points use to cross module
    boundaries; callers of the [*_result] APIs never see it. *)
exception Error of t

val make :
  ?line:int -> ?transient:bool -> stage -> code:string -> string -> t

(** [error ?line ?transient stage ~code fmt] builds the diagnostic and
    raises [Error]. *)
val error :
  ?line:int ->
  ?transient:bool ->
  stage ->
  code:string ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a

val stage_name : stage -> string

(** One-line rendering: ["stage error [E_CODE] (line N): message"]. *)
val to_string : t -> string

(** All codes this module reserves for its own use (fault injection and
    internal crashes); stage-specific codes live with their mapping in
    [Lowpower.Compile]. *)
val code_internal : string

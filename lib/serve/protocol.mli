(** Wire protocol of the [lpccd] compile server.

    Frames are line-delimited compact JSON over a Unix-domain stream
    socket: one request object per line (client to server), one reply
    object per line (server to client).  Replies may arrive out of
    request order; clients match them by the echoed [id].

    The full schema, failure taxonomy and overload/deadline semantics
    are documented in docs/SERVING.md.  Everything here is shared
    between the server and the [serve-bench] client so that the load
    generator can verify byte-for-byte that a served result equals the
    one-shot [lpcc] result: both sides render payloads with the same
    functions. *)

module Json = Lp_util.Json
module Diag = Lp_util.Diag
module Machine = Lp_machine.Machine
module Compile = Lowpower.Compile

(** {2 Stable serve-stage diagnostic codes} *)

(** Malformed frame: bad JSON, unknown op, wrong field types, missing
    source, oversized frame.  Never transient. *)
val code_decode : string

(** Bounded request queue full: load was shed.  Transient — retry after
    backoff. *)
val code_overload : string

(** Unsupported protocol [version], or an op the negotiated version does
    not carry (e.g. ["tune"] under v1).  Never transient: retrying the
    same frame can never succeed; the client must downgrade. *)
val code_version : string

(** Newest protocol version this server speaks (2).  A request without
    a ["version"] field is version 1 and gets the PR 7 wire format
    byte-for-byte; replies echo ["version"] only when the request
    carried one. *)
val current_version : int

val version_supported : int -> bool

(** {2 Requests} *)

type op =
  | Ping        (** liveness probe *)
  | Compile     (** compile only; reply summarises the compiled program *)
  | Run         (** compile and simulate; adds the simulation outcome *)
  | Explain     (** compile and simulate under an always-on audit report;
                    reply carries the rendered report *)
  | Pipeline    (** resolve a pass-pipeline spec to its schedule *)
  | Stats       (** server counters snapshot *)
  | Shutdown    (** acknowledge, then drain and exit *)
  | Tune        (** v2: small-budget phase-ordering tune of one program;
                    reply carries the best spec and the energy delta *)
  | Profile     (** v2: compile and simulate with the source-level energy
                    profiler on; reply carries the [lowpower-profile/1]
                    artifact, byte-identical (once re-serialised) to
                    [lpcc profile --json] *)

val op_name : op -> string

type source =
  | Inline of string      (** MiniC program text in the frame *)
  | Workload of string    (** bundled workload by name *)
  | No_source             (** ops that need none (ping/pipeline/stats) *)

type request = {
  id : Json.t;              (** echoed verbatim in the reply; [Null] if absent *)
  version : int option;     (** [None] = v1 (field absent on the wire) *)
  op : op;
  src : source;
  machine : string;         (** a {!Machine.names} zoo name *)
  cores : int;
  config : string;          (** a {!Compile.config_names} name *)
  passes : string option;   (** optional pass-pipeline spec *)
  deadline_ms : int option; (** per-request deadline *)
  budget : int option;      (** tune: unique evaluations (server caps it) *)
  seed : int option;        (** tune: search seed (default 1) *)
}

(** Defaults used for omitted fields: machine ["generic"], 4 cores,
    config ["full"]. *)
val default_request : request

(** Parse one frame (without its terminating newline) into a request.
    Malformed frames come back as a [Serve]-stage diagnostic with code
    {!code_decode}; an unsupported ["version"] (checked before anything
    else) or a v2-only op on a v1 frame as {!code_version}.  No
    exception ever escapes, whatever the bytes. *)
val request_of_frame : string -> (request, Diag.t) result

(** Best-effort ["id"] extraction from any frame, [Null] when the bytes
    don't even parse — decode-error replies echo it so pipelining
    clients can still match them. *)
val frame_id : string -> Json.t

(** Client side: render a request as one frame, newline included. *)
val frame_of_request : request -> string

(** {2 Replies} *)

(** Success frame: the payload fields, plus ["id"], ["ok"]:true, ["op"],
    and ["cached"] when the compile came from the server's warm cache.
    [version] (echoed from the request, so absent for v1 clients) keeps
    pre-versioning replies byte-identical.  Newline included. *)
val ok_frame :
  id:Json.t ->
  op:op ->
  ?version:int ->
  ?cached:bool ->
  (string * Json.t) list ->
  string

(** Error frame: ["id"], ["ok"]:false, ["code"], ["stage"], ["message"],
    ["transient"], and ["line"] when known.  Newline included. *)
val err_frame : id:Json.t -> ?version:int -> Diag.t -> string

(** Client-side view of a parsed reply frame. *)
type reply = {
  r_id : Json.t;
  r_ok : bool;
  r_code : string option;      (** error code when [not r_ok] *)
  r_transient : bool;
  r_payload : Json.t;          (** the whole reply object *)
}

(** Parse a reply frame; [Error] means the server broke the protocol. *)
val reply_of_frame : string -> (reply, string) result

(** {2 Request resolution and payload rendering}

    Shared with [serve-bench --verify]: computing the expected payload
    locally with these functions and comparing bytes against the served
    frame proves the daemon returns exactly what one-shot [lpcc]
    computes. *)

(** Machine + compile options for a request: the one resolver of
    machine, cores, configuration ({!Compile.configs}) and passes, for
    lpccd and lpcc alike.  [cores] is clamped to the machine silently
    (the reply names the machine used); [passes] is parsed, failures
    keeping their own [E_PIPELINE_SPEC] code.  Unknown machine and
    configuration names come back as {!code_decode}. *)
val resolve_target : request -> (Machine.t * Compile.options, Diag.t) result

(** Program text and scope label (fault/report scope) for a request;
    unknown workloads come back as {!code_decode}. *)
val resolve_source : request -> (string * string, Diag.t) result

(** Deterministic summary of a compiled program: machine, function and
    instruction counts, detected pattern instances, per-pass run/change
    counts (no wall times) and gating counts. *)
val payload_of_compiled : Compile.compiled -> (string * Json.t) list

(** {!payload_of_compiled} plus the simulation outcome: return value,
    simulated duration and energy (total and by category), instruction
    and transition counters.  Everything simulated, hence
    deterministic. *)
val payload_of_run :
  Compile.compiled -> Lp_sim.Sim.outcome -> (string * Json.t) list

(** The rendered audit report. *)
val payload_of_explain : Lp_obs.Report.t -> (string * Json.t) list

(** The resolved optimisation schedule for [passes] ([None] = driver
    default, plus the list of available passes). *)
val payload_of_pipeline :
  passes:string option -> ((string * Json.t) list, Diag.t) result

(** Tune result: best spec, baseline/tuned energy, improvement, search
    effort.  Deterministic for a given (seed, budget, target). *)
val payload_of_tune : Lp_tune.Tune.workload_result -> (string * Json.t) list

(** The [lowpower-profile/1] artifact of a profiled outcome, embedded
    verbatim under ["profile"].  [source] is the scope label ("inline"
    or the workload name) so a served profile of a workload matches the
    one-shot [lpcc profile -w NAME --json] bytes exactly. *)
val payload_of_profile :
  source:string ->
  Compile.compiled ->
  Lp_sim.Sim.outcome ->
  (string * Json.t) list

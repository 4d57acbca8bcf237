(** Pipeline telemetry: hierarchical tracing spans, named counters and
    gauges, exported as Chrome trace-event JSON plus a human-readable
    summary.

    One {!t} is a recorder.  The driver threads it through the pipeline
    inside [Lowpower.Compile.ctx]; with the {!disabled} recorder every
    operation is a no-op that reads no clock and takes no lock, so code
    can be instrumented unconditionally ("zero overhead when off").

    Spans form two timelines, distinguished by the Chrome [pid]:

    - {!wall_pid}: real (monotonic) time, one [tid] per OCaml domain —
      compile phases, per-pass and per-function work, matrix cells;
    - {!sim_pid}: simulated nanoseconds, one [tid] per modelled core —
      what each core of the machine model was busy with.

    All operations are safe to call from several domains at once; the
    recorder aggregates under one mutex.  Counter values are sums, so
    aggregation is deterministic whatever the domain interleaving. *)

(** Argument payload attached to a span ([args] in the Chrome JSON). *)
type arg = Str of string | Int of int | Float of float

type span = {
  sp_name : string;
  sp_cat : string;          (** taxonomy: see docs/OBSERVABILITY.md *)
  sp_pid : int;             (** {!wall_pid} or {!sim_pid} *)
  sp_tid : int;             (** domain id (wall) / core id (simulated) *)
  sp_start_ns : float;
  sp_dur_ns : float;
  sp_depth : int;           (** open ancestors on the same track at entry *)
  sp_args : (string * arg) list;
}

type t

val wall_pid : int
val sim_pid : int

(** The always-off recorder: every operation returns immediately. *)
val disabled : t

(** A fresh enabled recorder.  [clock] defaults to {!Clock.monotonic};
    tests inject {!Clock.fixed_step} for reproducible output. *)
val create : ?clock:Clock.t -> unit -> t

val enabled : t -> bool

(** {2 Spans} *)

(** [span t ~cat name f] times [f] on the calling domain's wall track,
    recording a completed span even when [f] raises.  Disabled recorder:
    tail-calls [f]. *)
val span : t -> ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a

(** Record a span measured externally (e.g. in simulated time, or a
    duration shared with another consumer such as the pass-stats table).
    [pid] defaults to {!wall_pid}; [tid] defaults to the calling domain
    on the wall track and must be given for {!sim_pid}.  The span's
    depth is the number of [span] calls currently open on that wall
    track (0 on simulated tracks). *)
val emit_span :
  t ->
  ?cat:string ->
  ?args:(string * arg) list ->
  ?pid:int ->
  ?tid:int ->
  start_ns:float ->
  dur_ns:float ->
  string ->
  unit

(** The recorder's clock, for callers that measure a duration once and
    both aggregate it and emit it as a span.  Reads the real clock even
    while recording is disabled, so timings (e.g. pass statistics) do
    not change shape when tracing turns on. *)
val now_ns : t -> float

(** {2 Counters and gauges} *)

(** [add t name n] adds [n] to the named counter (created at 0). *)
val add : t -> string -> int -> unit

(** [set_gauge t name v] records the latest value of a gauge. *)
val set_gauge : t -> string -> float -> unit

(** {2 Histograms}

    Log₂-bucketed histograms for latency-style distributions: bucket
    [i] counts values in [2^(i-1), 2^i) (everything below 1 in bucket
    0), so quantile estimates are upper bounds within a factor of 2.
    Bucket counts are sums, so concurrent recording and merging are
    deterministic whatever the domain interleaving.  With the
    {!disabled} recorder, {!record_hist} is a no-op that takes no
    lock. *)

type hist

(** A fresh standalone histogram (all zero), e.g. a merge target. *)
val hist_create : unit -> hist

(** [record_hist t name v] adds the sample [v] to the named histogram
    (created empty).  No-op when disabled. *)
val record_hist : t -> string -> float -> unit

(** Snapshot of one named histogram; [None] if never recorded. *)
val hist_of : t -> string -> hist option

(** Snapshots of all histograms, sorted by name. *)
val hists : t -> (string * hist) list

(** Add one sample to a standalone histogram. *)
val hist_record : hist -> float -> unit

(** Add [src]'s counts and sum into [into]. *)
val hist_merge_into : into:hist -> hist -> unit

val hist_count : hist -> int

(** Sum of the recorded samples (exact, not bucketed). *)
val hist_sum : hist -> float

(** [hist_quantile h q] is an upper bound on the [q]-quantile (the
    upper edge of the bucket the rank falls in); [0.0] when empty. *)
val hist_quantile : hist -> float -> float

(** One-line rendering: count, sum, p50/p90/p99 upper bounds. *)
val hist_render : hist -> string

(** {2 Inspection and export} *)

(** Completed spans, oldest first. *)
val spans : t -> span list

val span_count : t -> int

(** Counters, sorted by name (deterministic across domain schedules). *)
val counters : t -> (string * int) list

(** Gauges, sorted by name. *)
val gauges : t -> (string * float) list

(** Chrome trace-event JSON (loads in chrome://tracing and Perfetto):
    an object with a [traceEvents] array of ["X"] complete events (one
    per span, [ts]/[dur] in microseconds), ["C"] counter samples and
    ["M"] process-name metadata. *)
val chrome_string : t -> string

(** {!chrome_string}, written atomically ({!Lp_util.Json.write_file}). *)
val write_chrome : t -> path:string -> unit

(** Aggregated human-readable summary: per-(cat, name) span count and
    total milliseconds, then counters and gauges.  Sorted by name. *)
val summary : t -> string

(** Load generator and robustness prover for the [lpccd] compile server.

    Replays a seeded, deterministic corpus of mixed requests — valid
    generated programs and bundled workloads, malformed frames,
    compile-error sources, near-zero deadlines, pings — over [clients]
    concurrent connections with windowed pipelining, then reports
    throughput, latency percentiles and the per-outcome taxonomy
    ([BENCH_serve.json], schema [lowpower-bench-serve/1]).

    Contract proved on success: the server crashed zero times (every
    connection stayed live until closed by us), every failure carried a
    stable diagnostic code, and — with [verify] — every valid
    compile/run reply was byte-identical to the payload computed locally
    through the very same one-shot entry points [lpcc] uses.  [verify]
    assumes the server runs without injected faults. *)

module Json = Lp_util.Json

type config = {
  socket_path : string;
  requests : int;        (** corpus size (>= 1) *)
  clients : int;         (** concurrent connections *)
  window : int;          (** max in-flight requests per connection *)
  seed : int;            (** corpus generator seed *)
  verify : bool;         (** byte-compare valid replies against local runs *)
}

val default_config : socket_path:string -> config

type outcomes = {
  ok : int;              (** successful replies (includes cached) *)
  cached : int;          (** subset of [ok] served from the warm cache *)
  decode_err : int;      (** [E_DECODE] — the malformed subset *)
  compile_err : int;     (** stable compile diagnostics ([E_PARSE], ...) *)
  overload : int;        (** [E_OVERLOAD] sheds observed (pre-retry) *)
  deadline : int;        (** [E_DEADLINE] *)
  injected_fault : int;  (** [E_FAULT_*] that exhausted retries *)
  internal : int;        (** [E_INTERNAL] — must stay 0 *)
  gave_up : int;         (** transient failures that exhausted client retries *)
}

type summary = {
  cfg : config;
  wall_s : float;
  completed : int;         (** corpus entries that got a final reply *)
  sends : int;             (** frames sent, retries included *)
  retries : int;           (** client-side retransmissions *)
  throughput_rps : float;
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
  outcomes : outcomes;
  verify_checked : int;
  verify_mismatches : int;
  server_crashes : int;    (** connections that died with replies pending *)
  protocol_errors : int;   (** unparseable or unmatchable replies *)
  server_stats : Json.t;   (** the server's own counters, when reachable *)
}

(** Run the replay.  [Error _] only for harness-level failures (cannot
    connect); server-side misbehaviour is reported in the summary so the
    caller can assert on it. *)
val run : config -> (summary, string) result

val summary_json : summary -> Json.t

(** Human-readable one-screen rendering. *)
val to_text : summary -> string

(** The acceptance gate the CI smoke step applies: zero crashes, zero
    internal errors, zero protocol errors, zero verify mismatches, and
    every corpus entry answered.  [Error] lists the violations. *)
val acceptance : summary -> (unit, string list) result

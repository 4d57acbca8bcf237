(** The [lpccd] compile server: a long-running daemon accepting
    concurrent compile/run/explain/pipeline requests over a Unix-domain
    socket (line-delimited JSON, {!Protocol}), sharing a warm LRU cache
    of compiled programs and their [run] replies across requests and
    dispatching work onto worker domains through a bounded queue.

    Robustness properties (docs/SERVING.md has the full contract):

    - {b backpressure}: when the bounded queue is full the request is
      shed immediately with the transient [E_OVERLOAD] diagnostic
      instead of queueing without bound;
    - {b deadlines}: every request gets a cooperative cancellation token
      ([deadline_ms], or the server default); expiry anywhere in the
      pipeline or simulator surfaces as [E_DEADLINE];
    - {b watchdog}: deadline-less requests stuck longer than [stuck_ms]
      are cancelled through the same token;
    - {b crash isolation}: any exception a request provokes is caught at
      the worker boundary and returned as a structured diagnostic; the
      worker, its domain, the cache and every other connection survive,
      and the crashing program's own cache entry is invalidated;
    - {b graceful drain}: on stop the server refuses new work, finishes
      (or cancels, after a bounded wait) what is in flight, then closes
      every connection and joins its domains. *)

module Compile = Lowpower.Compile
module Json = Lp_util.Json

type opts = {
  socket_path : string;
  jobs : int;                      (** worker domains (>= 1) *)
  queue_capacity : int;            (** bounded request queue *)
  default_deadline_ms : int option;(** applied when the request has none *)
  stuck_ms : int;                  (** watchdog limit for deadline-less requests *)
  cache_capacity : int;            (** warm cache entries (LRU) *)
  drain_ms : int;                  (** max wait for in-flight work on stop *)
}

(** 2 workers, queue 64, no default deadline, 30 s watchdog, 128 cache
    entries, 10 s drain.  Frames are bounded at a fixed 4 MiB; a longer
    one is rejected with [E_DECODE]. *)
val default_opts : socket_path:string -> opts

type t

(** Bind the socket, spawn the worker domains and the acceptor; returns
    once the server is listening.  [ctx] supplies the observability
    recorder, audit report and runtime config (retries, armed faults)
    shared by all requests; per-request deadline tokens are layered on
    top of it. *)
val start : ?ctx:Compile.ctx -> opts -> t

(** Signal-handler-safe stop request: flips a flag the acceptor polls.
    The drain itself happens on the acceptor domain. *)
val request_stop : t -> unit

(** Whether a stop has been requested. *)
val stopping : t -> bool

(** Request a stop (idempotent), wait for the drain to finish and join
    every domain.  The socket file is removed. *)
val stop : t -> unit

(** Counters snapshot: accepts, frames, requests, replies by outcome,
    sheds, deadline expiries, watchdog cancels, retries, cache
    hits/misses/invalidations, live queue depth. *)
val stats_json : t -> Json.t

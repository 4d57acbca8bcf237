(** The [lpccd] compile server (see the interface for the contract).

    Concurrency model: one acceptor domain multiplexes the listening
    socket and every client connection with [select], extracts frames,
    answers the trivial ops (ping/stats/shutdown) inline and pushes the
    rest through the bounded queue; [jobs] worker domains each run one
    long-lived request loop.  Workers write replies
    straight to the client under a per-connection write mutex, so
    replies may interleave across requests but never within a frame. *)

module Compile = Lowpower.Compile
module Json = Lp_util.Json
module Diag = Lp_util.Diag
module Fault = Lp_util.Fault
module Deadline = Lp_util.Deadline
module Backoff = Lp_util.Backoff
module Obs = Lp_obs.Obs
module Report = Lp_obs.Report
module Memo = Lp_util.Memo
module P = Protocol

type opts = {
  socket_path : string;
  jobs : int;
  queue_capacity : int;
  default_deadline_ms : int;
  cache_capacity : int;
  drain_ms : int;
}

(* larger frames are rejected E_DECODE *)
let max_frame_bytes = 4 * 1024 * 1024

let default_opts ~socket_path =
  {
    socket_path;
    jobs = 2;
    queue_capacity = 64;
    default_deadline_ms = 30_000;
    cache_capacity = 128;
    drain_ms = 10_000;
  }

(* ------------------------------------------------------------------ *)
(* Connections and queue items                                         *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;              (** partial-frame bytes; acceptor-only *)
  wmutex : Mutex.t;            (** guards [alive] and writes to [fd] *)
  mutable alive : bool;
  mutable overflowed : bool;   (** discarding an oversized frame *)
}

type item = {
  it_conn : conn;
  it_req : P.request;
  it_token : Deadline.t;
  it_iid : int;
  it_enq_at : float;
}

type payload = (string * Json.t) list

(** A warm-cache entry: the compiled program and, once a [run] or a
    [profile] of it has simulated successfully, that reply's payload.
    Simulation is deterministic, so every later request of the entry
    replies from the memo; workers racing to fill a slot store equal
    payloads.  Payloads, not {!Lp_sim.Sim.outcome}s, are kept: an
    outcome holds the program's final shared memory. *)
type entry = {
  compiled : Compile.compiled;
  run_payload : payload option Atomic.t;
  profile_payload : (string * payload) option Atomic.t;
      (** with the source name the artifact carries: an inline source
          and the bundled workload it copies share an entry *)
}

type t = {
  o : opts;
  ctx : Compile.ctx;
  listen_fd : Unix.file_descr;
  queue : item Bqueue.t;
  mutable workers : unit Domain.t list;
  stop_flag : bool Atomic.t;
  mutable acceptor : unit Domain.t option;
  infl_mutex : Mutex.t;
  inflight : (int, item) Hashtbl.t;
  next_iid : int Atomic.t;
  cache : (string, entry) Memo.t;
  live : Obs.t;
      (** always-on recorder behind [stats]: the [serve.*] counters and
          the per-op request-latency histograms — independent of
          [ctx.obs], which is enabled only when the operator asked for a
          trace *)
  mutable joined : bool;
}

(* Count one event in the recorder behind [stats] and in the trace. *)
let bump t name =
  Obs.add t.live name 1;
  Obs.add t.ctx.Compile.obs name 1

let retries t = t.ctx.Compile.config.Lp_util.Runtime_config.retries

let with_inflight t f =
  Mutex.lock t.infl_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.infl_mutex) (fun () ->
      f t.inflight)

let inflight_count t = with_inflight t Hashtbl.length

(* ------------------------------------------------------------------ *)
(* Writing replies                                                     *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(** Write one frame; a failed or timed-out write marks the connection
    dead (the acceptor closes it) instead of raising into the worker. *)
let write_frame (c : conn) (frame : string) =
  Mutex.lock c.wmutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.wmutex) (fun () ->
      if c.alive then
        try write_all c.fd frame with
        | Unix.Unix_error _ | Sys_error _ -> c.alive <- false)

let send_ok t conn ~id ~op ?version ?cached payload =
  bump t "serve.replies_ok";
  write_frame conn (P.ok_frame ~id ~op ?version ?cached payload)

let send_err t conn ~id ?version (d : Diag.t) =
  bump t "serve.replies_err";
  if d.Diag.code = Deadline.code then bump t "serve.deadline";
  write_frame conn (P.err_frame ~id ?version d)

(* ------------------------------------------------------------------ *)
(* Request dispatch (worker side)                                      *)
(* ------------------------------------------------------------------ *)

let cache_key (req : P.request) (src : string) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            src;
            req.P.machine;
            string_of_int req.P.cores;
            req.P.config;
            Option.value ~default:"" req.P.passes;
          ]))

let ( let* ) = Result.bind

(** Catch {e everything} a request provokes ({!Compile.guard}): an
    [E_INTERNAL] crash invalidates only the touched program's cache
    entry — the worker, the other entries and every other connection
    survive. *)
let guard t ~key f =
  let result = Compile.guard f in
  (match result with
  | Error d when d.Diag.code = Diag.code_internal ->
    Option.iter (Memo.remove t.cache) key;
    bump t "serve.internal_errors"
  | Ok _ | Error _ -> ());
  result

(* a served tune is a bounded sketch of `lpcc tune`, not a batch job:
   the budget is clamped so one frame cannot park a worker for long *)
let tune_budget_cap = 200
let tune_budget_default = 40

(** One attempt at a compile/run/explain/pipeline/tune request.  Returns
    the reply payload and whether the compile came from the warm cache. *)
let dispatch_once t (ctx : Compile.ctx) (req : P.request) :
    ((string * Json.t) list * bool, Diag.t) result =
  match req.P.op with
  | P.Pipeline ->
    guard t ~key:None (fun () ->
        Result.map
          (fun p -> (p, false))
          (P.payload_of_pipeline ~passes:req.P.passes))
  | P.Tune ->
    let* src, scope = P.resolve_source req in
    let* machine, opts = P.resolve_target req in
    guard t ~key:None (fun () ->
        let budget =
          min tune_budget_cap
            (Option.value ~default:tune_budget_default req.P.budget)
        in
        let cfg =
          Lp_tune.Tune.default_config ~budget
            ?seed:req.P.seed ~config_name:req.P.config ~opts ~machine ()
        in
        let w =
          {
            Lp_workloads.Workload.name = scope;
            description = "served tune target";
            source = src;
            expected_pattern = "none";
            check_globals = [];
          }
        in
        (* evaluations run inline on this worker: a one-job pool spawns
           no domain, so a served tune occupies one worker like any
           other request *)
        let pool = Lp_util.Domain_pool.create ~jobs:1 () in
        let* r = Lp_tune.Tune.tune_workload ~ctx ~pool cfg w in
        Ok (P.payload_of_tune r, false))
  | P.Compile | P.Run | P.Explain | P.Profile ->
    let* src, scope = P.resolve_source req in
    let* machine, opts = P.resolve_target req in
    let key = cache_key req src in
    (* injected faults make results attempt-dependent; never let them
       into (or out of) the shared cache *)
    let use_cache = not (Fault.active ()) in
    guard t ~key:(Some key) (fun () ->
        Fault.with_scope scope @@ fun () ->
        (* the matrix's worker point, keyed <scope>/<config> like a cell *)
        Fault.check Fault.Worker ~key:req.P.config;
        (* the entry and whether it came from the warm cache *)
        let compiled () =
          match if use_cache then Memo.find t.cache key else None with
          | Some e -> Ok (e, true)
          | None ->
            let* c = Compile.compile_result ~ctx ~opts ~machine src in
            let e =
              { compiled = c; run_payload = Atomic.make None;
                profile_payload = Atomic.make None }
            in
            if use_cache then Memo.add t.cache key e;
            Ok (e, false)
        in
        (* [Compile.run_result] is [compile_result] then
           [simulate_result], so a memoised payload is the bytes of a
           cold one; a failure returns past the slot, which only ever
           holds a success *)
        match req.P.op with
        | P.Compile ->
          let* e, cached = compiled () in
          Ok (P.payload_of_compiled e.compiled, cached)
        | P.Run -> (
          let* e, cached = compiled () in
          match Atomic.get e.run_payload with
          | Some p -> Ok (p, cached)
          | None ->
            let* o = Compile.simulate_result ~ctx e.compiled in
            let p = P.payload_of_run e.compiled o in
            Atomic.set e.run_payload (Some p);
            Ok (p, cached))
        | P.Profile -> (
          (* attribution is a pure simulation-side observer, so this is
             the exact artifact a cold one-shot `lpcc profile --json`
             writes *)
          let* e, cached = compiled () in
          match Atomic.get e.profile_payload with
          | Some (source, p) when source = scope -> Ok (p, cached)
          | Some _ | None ->
            let sim_opts =
              { Lp_sim.Sim.default_options with Lp_sim.Sim.profile = true }
            in
            let* o = Compile.simulate_result ~ctx ~sim_opts e.compiled in
            let p = P.payload_of_profile ~source:scope e.compiled o in
            Atomic.set e.profile_payload (Some (scope, p));
            Ok (p, cached))
        | P.Explain ->
          (* explain IS the report: fresh, always-on, request-local *)
          let rep = Report.create () in
          let ctx = { ctx with Compile.report = rep } in
          Report.with_scope scope @@ fun () ->
          let* _ = Compile.run_result ~ctx ~opts ~machine src in
          Ok (P.payload_of_explain rep, false)
        | P.Ping | P.Pipeline | P.Stats | P.Shutdown | P.Tune -> assert false)
  | P.Ping | P.Stats | P.Shutdown -> assert false (* answered inline *)

(** Dispatch, retrying transient failures (bounded injected faults,
    simulated transient bus faults) with deterministic bounded backoff
    up to [Runtime_config.retries]. *)
let dispatch t ctx req =
  fst
    (Backoff.retry ~retries:(retries t)
       ~on_retry:(fun () -> bump t "serve.retries")
       (fun () -> dispatch_once t ctx req))

let process_item t (it : item) =
  Fun.protect
    ~finally:(fun () -> with_inflight t (fun tbl -> Hashtbl.remove tbl it.it_iid))
    (fun () ->
      let id = it.it_req.P.id in
      let version = it.it_req.P.version in
      if Deadline.expired it.it_token then begin
        (* expired while queued: shed before doing any work *)
        let msg =
          if Deadline.cancelled it.it_token then "request cancelled"
          else "deadline exceeded while queued"
        in
        send_err t it.it_conn ~id ?version
          (Diag.make Diag.Driver ~code:Deadline.code msg)
      end
      else begin
        let ctx = { t.ctx with Compile.deadline = it.it_token } in
        let result = dispatch t ctx it.it_req in
        (* enqueue-to-reply latency, per op, in log2 millisecond buckets *)
        Obs.record_hist t.live
          ("serve.latency_ms." ^ P.op_name it.it_req.P.op)
          ((Unix.gettimeofday () -. it.it_enq_at) *. 1e3);
        match result with
        | Ok (payload, cached) ->
          if cached then Obs.add t.ctx.Compile.obs "serve.cache_replies" 1;
          send_ok t it.it_conn ~id ~op:it.it_req.P.op ?version ~cached payload
        | Error d -> send_err t it.it_conn ~id ?version d
      end)

(** The long-lived request loop each worker domain runs: drain the bounded
    queue until it is closed {e and} empty.  [process_item] never lets
    an exception escape, so the loop — and the worker domain — survives
    any request. *)
let worker_loop t () =
  let rec loop () =
    match Bqueue.pop t.queue with
    | None -> ()
    | Some it ->
      Obs.set_gauge t.ctx.Compile.obs "serve.queue_depth"
        (float_of_int (Bqueue.length t.queue));
      (try process_item t it with _ -> ());
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Acceptor: frame extraction and inline ops                           *)
(* ------------------------------------------------------------------ *)

(* each [stats] counter field and the recorder counter behind it *)
let stats_counters =
  [ ("accepts", "serve.accepts");
    ("frames", "serve.frames");
    ("requests", "serve.requests");
    ("replies_ok", "serve.replies_ok");
    ("replies_err", "serve.replies_err");
    ("decode_errors", "serve.decode_errors");
    ("shed_overload", "serve.shed_overload");
    ("deadline_expired", "serve.deadline");
    ("serve_fault_retries", "serve.fault_retries");
    ("serve_faults", "serve.faults");
    ("dispatch_retries", "serve.retries");
    ("internal_errors", "serve.internal_errors") ]

let stats_json t =
  let counts = Obs.counters t.live in
  let count name =
    Json.Num
      (float_of_int (Option.value ~default:0 (List.assoc_opt name counts)))
  in
  Json.Obj
    (List.map (fun (field, name) -> (field, count name)) stats_counters
    @ [
      ("queue_depth", Json.Num (float_of_int (Bqueue.length t.queue)));
      ("inflight", Json.Num (float_of_int (inflight_count t)));
      ( "cache",
        Json.Obj
          [
            ("entries", Json.Num (float_of_int (Memo.length t.cache)));
            ("hits", Json.Num (float_of_int (Memo.hits t.cache)));
            ("misses", Json.Num (float_of_int (Memo.misses t.cache)));
            ( "invalidations",
              Json.Num (float_of_int (Memo.invalidations t.cache)) );
          ] );
      ( "latency_ms",
        (* per-op enqueue-to-reply histograms; quantiles are log2-bucket
           upper bounds *)
        Json.Obj
          (List.filter_map
             (fun (name, h) ->
               match
                 String.length name > 17
                 && String.sub name 0 17 = "serve.latency_ms."
               with
               | false -> None
               | true ->
                 Some
                   ( String.sub name 17 (String.length name - 17),
                     Json.Obj
                       [
                         ("count", Json.Num (float_of_int (Obs.hist_count h)));
                         ("sum_ms", Json.Num (Obs.hist_sum h));
                         ("p50_ms", Json.Num (Obs.hist_quantile h 0.5));
                         ("p90_ms", Json.Num (Obs.hist_quantile h 0.9));
                         ("p99_ms", Json.Num (Obs.hist_quantile h 0.99));
                       ] ))
             (Obs.hists t.live)) );
    ])

(** Reach a serve-side fault point with retry-with-backoff: transient
    injected faults (bounded [*count] / [%pct] clauses) recover after a
    bounded number of attempts; a persistent fault surfaces to the
    caller as its stable [E_FAULT_*] diagnostic. *)
let faulted t point ~key : (unit, Diag.t) result =
  match
    Backoff.retry ~retries:(retries t)
      ~on_retry:(fun () -> bump t "serve.fault_retries")
      (fun () ->
        match Fault.check point ~key with
        | () -> Ok ()
        | exception Diag.Error d -> Error d)
  with
  | (Ok (), _) -> Ok ()
  | (Error d, _) ->
    bump t "serve.faults";
    Error d

(** Enqueue one decoded request, or answer it inline when it needs no
    worker.  Backpressure: a full queue sheds the request immediately
    with the transient [E_OVERLOAD] reply. *)
let dispatch_request t (c : conn) (req : P.request) =
  bump t "serve.requests";
  let id = req.P.id in
  let version = req.P.version in
  match req.P.op with
  | P.Ping -> send_ok t c ~id ~op:P.Ping ?version [ ("pong", Json.Bool true) ]
  | P.Stats -> send_ok t c ~id ~op:P.Stats ?version [ ("stats", stats_json t) ]
  | P.Shutdown ->
    send_ok t c ~id ~op:P.Shutdown ?version [ ("draining", Json.Bool true) ];
    Atomic.set t.stop_flag true
  | P.Compile | P.Run | P.Explain | P.Pipeline | P.Tune | P.Profile -> (
    match faulted t Fault.Serve_dispatch ~key:"dispatch" with
    | Error d -> send_err t c ~id ?version d
    | Ok () ->
      let it =
        {
          it_conn = c;
          it_req = req;
          it_token =
            Deadline.after_ms
              (Option.value req.P.deadline_ms ~default:t.o.default_deadline_ms);
          it_iid = Atomic.fetch_and_add t.next_iid 1;
          it_enq_at = Unix.gettimeofday ();
        }
      in
      (* register before the push: a worker may finish the item before
         [try_push] returns, and its removal must come second *)
      with_inflight t (fun tbl -> Hashtbl.replace tbl it.it_iid it);
      (match Bqueue.try_push t.queue it with
      | `Ok depth ->
        Obs.set_gauge t.ctx.Compile.obs "serve.queue_depth"
          (float_of_int depth)
      | `Full | `Closed ->
        with_inflight t (fun tbl -> Hashtbl.remove tbl it.it_iid);
        bump t "serve.shed_overload";
        send_err t c ~id ?version
          (Diag.make ~transient:true Diag.Serve ~code:P.code_overload
             "request queue full; retry after backoff")))

let handle_frame t (c : conn) (line : string) =
  bump t "serve.frames";
  match faulted t Fault.Serve_decode ~key:"decode" with
  | Error d -> send_err t c ~id:(P.frame_id line) d
  | Ok () -> (
    match P.request_of_frame line with
    | Ok req -> dispatch_request t c req
    | Error d ->
      bump t "serve.decode_errors";
      send_err t c ~id:(P.frame_id line) d)

(** Split the connection buffer into complete frames.  An oversized
    frame is rejected once ([E_DECODE]) and its remaining bytes are
    discarded up to the next newline, so one abusive frame cannot park
    unbounded memory or desynchronise the stream. *)
let extract_frames t (c : conn) =
  let data = Buffer.contents c.buf in
  Buffer.clear c.buf;
  let len = String.length data in
  let pos = ref 0 in
  (try
     while !pos < len do
       match String.index_from data !pos '\n' with
       | nl ->
         let line = String.sub data !pos (nl - !pos) in
         pos := nl + 1;
         if c.overflowed then c.overflowed <- false (* tail of a bad frame *)
         else if String.trim line <> "" then handle_frame t c line
       | exception Not_found ->
         let rest = len - !pos in
         if c.overflowed then pos := len (* keep discarding *)
         else if rest > max_frame_bytes then begin
           c.overflowed <- true;
           bump t "serve.decode_errors";
           send_err t c ~id:Json.Null
             (Diag.make Diag.Serve ~code:P.code_decode
                (Printf.sprintf "frame exceeds %d bytes" max_frame_bytes));
           pos := len
         end
         else begin
           Buffer.add_substring c.buf data !pos rest;
           pos := len
         end
     done
   with e ->
     (* absolute backstop: a frame-handling bug must not kill the
        acceptor; the offending bytes are dropped *)
     bump t "serve.internal_errors";
     ignore e)

let read_conn t (c : conn) =
  let bytes = Bytes.create 65536 in
  match Unix.read c.fd bytes 0 (Bytes.length bytes) with
  | 0 -> c.alive <- false
  | n ->
    Buffer.add_subbytes c.buf bytes 0 n;
    extract_frames t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error (_, _, _) -> c.alive <- false

let close_conn (c : conn) =
  Mutex.lock c.wmutex;
  c.alive <- false;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  Mutex.unlock c.wmutex

(** Accept one pending connection, injecting [serve-accept] faults:
    transient ones retry with backoff, persistent ones shed the
    connection (accept-then-close, so the client sees a clean EOF). *)
let try_accept t : conn option =
  match faulted t Fault.Serve_accept ~key:"accept" with
  | Error _ ->
    (match Unix.accept t.listen_fd with
    | fd, _ -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ());
    None
  | Ok () -> (
    match Unix.accept t.listen_fd with
    | fd, _ ->
      (* never let one stalled client block a worker forever *)
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0
       with Unix.Unix_error _ -> ());
      bump t "serve.accepts";
      Some
        {
          fd;
          buf = Buffer.create 512;
          wmutex = Mutex.create ();
          alive = true;
          overflowed = false;
        }
    | exception Unix.Unix_error _ -> None)

(* ------------------------------------------------------------------ *)
(* Acceptor main loop and drain                                        *)
(* ------------------------------------------------------------------ *)

let drain t conns =
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.o.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  (* no new work; workers finish what was accepted *)
  Bqueue.close t.queue;
  let soft = Unix.gettimeofday () +. (float_of_int t.o.drain_ms /. 1e3) in
  while inflight_count t > 0 && Unix.gettimeofday () < soft do
    Unix.sleepf 0.005
  done;
  if inflight_count t > 0 then begin
    (* drain budget exhausted: cancel the stragglers cooperatively *)
    with_inflight t (fun tbl ->
        Hashtbl.iter (fun _ it -> Deadline.cancel it.it_token) tbl);
    let hard = Unix.gettimeofday () +. 2.0 in
    while inflight_count t > 0 && Unix.gettimeofday () < hard do
      Unix.sleepf 0.005
    done
  end;
  List.iter close_conn conns

let accept_loop t () =
  let rec loop conns =
    if Atomic.get t.stop_flag then drain t conns
    else begin
      let fds = t.listen_fd :: List.map (fun c -> c.fd) conns in
      let ready =
        match Unix.select fds [] [] 0.05 with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> []
      in
      let conns =
        if List.memq t.listen_fd ready then
          match try_accept t with Some c -> c :: conns | None -> conns
        else conns
      in
      List.iter (fun c -> if List.memq c.fd ready then read_conn t c) conns;
      let dead, live = List.partition (fun c -> not c.alive) conns in
      List.iter close_conn dead;
      loop live
    end
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let request_stop t = Atomic.set t.stop_flag true
let stopping t = Atomic.get t.stop_flag

let start ?(ctx = Compile.default_ctx) (o : opts) : t =
  (try Unix.unlink o.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let t =
    try
      Unix.bind listen_fd (Unix.ADDR_UNIX o.socket_path);
      Unix.listen listen_fd 128;
      let jobs = max 1 o.jobs in
      {
        o = { o with jobs };
        ctx;
        listen_fd;
        queue = Bqueue.create ~capacity:o.queue_capacity;
        workers = [];
        stop_flag = Atomic.make false;
        acceptor = None;
        infl_mutex = Mutex.create ();
        inflight = Hashtbl.create 64;
        next_iid = Atomic.make 1;
        cache = Memo.create ~capacity:o.cache_capacity;
        live = Obs.create ();
        joined = false;
      }
    with e ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      raise e
  in
  t.workers <- List.init t.o.jobs (fun _ -> Domain.spawn (worker_loop t));
  t.acceptor <- Some (Domain.spawn (accept_loop t));
  t

let stop t =
  if not t.joined then begin
    t.joined <- true;
    request_stop t;
    Option.iter Domain.join t.acceptor;
    t.acceptor <- None;
    (* the drain closed the queue, so every worker loop returns *)
    List.iter Domain.join t.workers;
    t.workers <- []
  end

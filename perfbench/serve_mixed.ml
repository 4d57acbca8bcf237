(** The [serve-mixed] workload: an in-process [lpccd] on a unix socket,
    driven as a closed loop by [nproc] clients with one request in
    flight each, in rounds.

    Corpus (seeded): half the requests repeat a hot set of the 42
    (bundled program, baseline|full) pairs, smaller than the server's
    128-entry cache; the rest are unique [Lp_robust.Gen] programs.  Most
    requests are [run], some [compile]; 4% are malformed frames or broken
    sources whose stable codes are known in advance.  The corpus wraps
    around after [corpus_size] entries. *)

open Common
module P = Lp_serve.Protocol
module Server = Lp_serve.Server
module Gen = Lp_robust.Gen
module Suite = Lp_workloads.Suite
module Workload = Lp_workloads.Workload

type kind =
  | Run
  | Compile_only
  | Expect of string  (** an expected diagnostic, by exact code *)

type entry = {
  frame : string;        (** newline-terminated request frame *)
  kind : kind;
  source : string;       (** program text ([""] for malformed frames) *)
  key : string;          (** (source, config): one compiled program *)
}

let corpus_size = 7000

(** Entries [0, quality_prefix) make the quality metrics. *)
let quality_prefix = 4000

let malformed =
  [| (fun _ -> "this is not json");
     (fun id -> Printf.sprintf "{\"id\":%d,\"op\":\"frobnicate\"}" id);
     (fun id -> Printf.sprintf "{\"id\":%d,\"op\":\"run\"}" id) |]

(** Broken programs and the front-end code each must produce. *)
let broken =
  [| ("int main( { return 0; }", "E_PARSE");
     ("int main() { return x; }", "E_TYPE");
     ("int main() { return 1 @ 2; }", "E_LEX") |]

(** The request mix of every block of 50 entries (shuffled within the
    block by the seed): mostly runs, some compiles, two with known
    diagnostics.  Stratifying by block keeps the mix, and so the cost of
    a run, the same for every seed. *)
let block =
  List.concat
    [ List.init 22 (fun _ -> `Hot P.Run); List.init 3 (fun _ -> `Hot P.Compile);
      List.init 15 (fun _ -> `Gen P.Run); List.init 8 (fun _ -> `Gen P.Compile);
      [ `Malformed; `Broken ] ]

let build_corpus ~seed =
  let rng = Lp_util.Rng.create ~seed in
  let req i op src config =
    P.frame_of_request
      { P.default_request with
        P.id = Json.Num (float_of_int i); op; src; config }
  in
  let hot_keys =
    List.concat_map (fun w -> [ (w, "baseline"); (w, "full") ]) Suite.all
  in
  (* the hot set is visited in seeded permutations, each key once per cycle *)
  let hot = Queue.create () in
  let next_hot () =
    if Queue.is_empty hot then
      List.iter (fun k -> Queue.push k hot) (Lp_util.Rng.shuffle rng hot_keys);
    Queue.pop hot
  in
  let kinds = ref [] and gens = ref 0 in
  Array.init corpus_size (fun i ->
      if !kinds = [] then kinds := Lp_util.Rng.shuffle rng block;
      let kind = List.hd !kinds in
      kinds := List.tl !kinds;
      let op_kind op = if op = P.Compile then Compile_only else Run in
      match kind with
      | `Hot op ->
        let ((w : Workload.t), config) = next_hot () in
        { frame = req i op (P.Workload w.Workload.name) config;
          kind = op_kind op; source = w.Workload.source;
          key = w.Workload.name ^ "/" ^ config }
      | `Gen op ->
        let src = (Gen.generate ~seed:(Lp_util.Rng.int rng 0x3fffffff)).Gen.source in
        incr gens;
        let config = if !gens land 1 = 0 then "full" else "baseline" in
        { frame = req i op (P.Inline src) config; kind = op_kind op; source = src;
          key = Digest.to_hex (Digest.string src) ^ "/" ^ config }
      | `Malformed ->
        let f = malformed.(i mod Array.length malformed) in
        { frame = f i ^ "\n"; kind = Expect P.code_decode; source = ""; key = "" }
      | `Broken ->
        let (src, code) = broken.(i mod Array.length broken) in
        { frame = req i P.Compile (P.Inline src) "baseline"; kind = Expect code;
          source = src; key = "" })

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)
(* ------------------------------------------------------------------ *)

type client = { fd : Unix.file_descr; mutable pending : string }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; pending = "" }

let chunk = 65536

let rec read_line c =
  match String.index_opt c.pending '\n' with
  | Some i ->
    let line = String.sub c.pending 0 i in
    c.pending <- String.sub c.pending (i + 1) (String.length c.pending - i - 1);
    line
  | None ->
    let b = Bytes.create chunk in
    let n = Unix.read c.fd b 0 chunk in
    if n = 0 then raise End_of_file;
    c.pending <- c.pending ^ Bytes.sub_string b 0 n;
    read_line c

let request c frame =
  let len = String.length frame in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring c.fd frame !off (len - !off)
  done;
  read_line c

(** One answered request: corpus index, round trip and raw reply. *)
type answer = { idx : int; rtt : float; reply : string }

(** Seconds of one round of the closed loop. *)
let round_s = 0.25

(** Closed loop in rounds: in a round, every client claims the next
    corpus index, sends it and waits for the reply, until the round's
    time is up.  Rounds go on until [seconds] have passed and at least
    [min_requests] were claimed.  Before the first round and after each,
    while the clients and the server are idle, the probe runs three
    times on as many domains as there are clients (the rounds keep every
    core busy); each round's round trips and length are scaled by the
    median probes on either side of it.  Returns the answers and the
    summed scaled length of the rounds. *)
let closed_loop clients (corpus : entry array) ~seconds ~min_requests =
  let next = Atomic.make 0 in
  let t0 = now () in
  let worker c until () =
    let rec go acc =
      if now () >= until then acc
      else begin
        let i = Atomic.fetch_and_add next 1 in
        let e = corpus.(i mod corpus_size) in
        let s = now () in
        let reply = request c e.frame in
        go ({ idx = i mod corpus_size; rtt = now () -. s; reply } :: acc)
      end
    in
    go []
  in
  let gap_probe () =
    median (List.init 3 (fun _ -> probe_all (List.length clients)))
  in
  let rec rounds p answers busy =
    if Atomic.get next >= min_requests && now () -. t0 >= seconds then (answers, busy)
    else begin
      let r0 = now () in
      let ds = List.map (fun c -> Domain.spawn (worker c (r0 +. round_s))) clients in
      let got = List.concat_map Domain.join ds in
      let r1 = now () in
      let p' = gap_probe () in
      let f = speed p p' in
      rounds p'
        (List.rev_append (List.map (fun a -> { a with rtt = a.rtt *. f }) got) answers)
        (busy +. ((r1 -. r0) *. f))
    end
  in
  rounds (gap_probe ()) [] 0.0

(* ------------------------------------------------------------------ *)
(* Server lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

type live = {
  server : Server.t;
  clients : client list;
  warmup : answer list;  (** the warm-up request of each connection *)
}

let start corpus =
  let path = Printf.sprintf "perfbench/_out/lpccd-%d.sock" (Unix.getpid ()) in
  let server = Server.start { (Server.default_opts ~socket_path:path) with Server.jobs = nproc () } in
  let clients = List.init (nproc ()) (fun _ -> connect path) in
  (* warm-up: the first corpus request, once on each connection *)
  let warmup =
    List.map
      (fun c ->
        let s = now () in
        let reply = request c corpus.(0).frame in
        { idx = 0; rtt = now () -. s; reply })
      clients
  in
  { server; clients; warmup }

let stop live =
  List.iter (fun c -> Unix.close c.fd) live.clients;
  Server.stop live.server

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

let field k j = Json.member k j
let num k j = Option.value ~default:0.0 (Option.bind (field k j) Json.to_float_opt)

let ret_json (o : Sim.outcome) =
  match o.Sim.ret with
  | None -> Json.Null
  | Some (Lp_sim.Value.Vint i) -> Json.Num (float_of_int i)
  | Some (Lp_sim.Value.Vfloat f) -> Json.Num f

(** [main]'s return value under the reference configuration, rendered
    as the reply renders it. *)
let reference_ret source =
  let machine = Machine.generic () in
  match Compile.compile_result ~opts:Compile.baseline ~machine source with
  | Error d -> "error " ^ d.Diag.code
  | Ok c ->
    let o =
      Compile.simulate_compiled
        ~sim_opts:{ Sim.default_options with Sim.predecode = false } c
    in
    Json.to_compact_string (ret_json o)

(** Why an answer is wrong, if it is. *)
let check_answer refs (corpus : entry array) (a : answer) =
  let e = corpus.(a.idx) in
  let bad fmt = Printf.ksprintf (fun s -> Some (Printf.sprintf "request %d: %s" a.idx s)) fmt in
  match P.reply_of_frame a.reply with
  | Error msg -> bad "unparseable reply: %s" msg
  | Ok r -> (
    match (e.kind, r.P.r_ok, r.P.r_code) with
    | Expect want, false, Some got when want = got -> None
    | Expect want, _, got -> bad "expected %s, got %s" want (Option.value ~default:"ok" got)
    | (Run | Compile_only), false, code -> bad "unexpected %s" (Option.value ~default:"error" code)
    | Compile_only, true, _ -> None
    | Run, true, _ ->
      let p = r.P.r_payload in
      let ret = Json.to_compact_string (Option.value ~default:Json.Null (field "ret" p)) in
      if num "implicit_wakeups" p > 0.0 then bad "implicit wakeups"
      else if ret <> Hashtbl.find refs e.source then bad "ret %s differs from the reference" ret
      else None)

(** Reference results of every distinct source answered, computed over a
    pool of [nproc] domains. *)
let references (corpus : entry array) (answers : answer list) =
  let seen = Hashtbl.create 256 in
  List.iter
    (fun a ->
      let e = corpus.(a.idx) in
      if e.kind = Run then Hashtbl.replace seen e.source ())
    answers;
  let sources = Hashtbl.fold (fun s () acc -> s :: acc) seen [] in
  let rets = pool_map reference_ret sources in
  let refs = Hashtbl.create 256 in
  List.iter2 (Hashtbl.replace refs) sources rets;
  refs

let check_all corpus answers =
  let refs = references corpus answers in
  let failures = List.filter_map (check_answer refs corpus) answers in
  (List.length answers, List.length failures, List.filteri (fun i _ -> i < 5) failures)

(** Geomeans over the distinct programs answered in the quality prefix. *)
let quality (corpus : entry array) (answers : answer list) =
  let progs = Hashtbl.create 256 in
  List.iter
    (fun a ->
      let e = corpus.(a.idx) in
      if a.idx < quality_prefix && e.key <> "" then
        match P.reply_of_frame a.reply with
        | Ok r when r.P.r_ok ->
          let p = r.P.r_payload in
          let sim =
            if e.kind = Run then Some (num "energy_nj" p, num "duration_ns" p /. 1e3)
            else None
          in
          let prev = Hashtbl.find_opt progs e.key in
          let sim = match (sim, prev) with (None, Some (_, s)) -> s | _ -> sim in
          Hashtbl.replace progs e.key (num "instrs" p, sim)
        | _ -> ())
    answers;
  let vals = Hashtbl.fold (fun _ v acc -> v :: acc) progs [] in
  let sims = List.filter_map snd vals in
  [
    m "sim_energy_gm_nj" "nJ" (geomean (List.map fst sims));
    m "sim_time_gm_us" "sim_us" (geomean (List.map snd sims));
    m "code_size_gm_instrs" "instrs" (geomean (List.map fst vals));
  ]

(** Timing metrics over the whole run, from the scaled round trips and
    round lengths; [busy] is the summed scaled length of the rounds. *)
let e2e ~setup_s corpus (answers, busy) =
  let of_kind k = List.filter (fun a -> corpus.(a.idx).kind = k) answers in
  let instrs =
    List.fold_left
      (fun acc a ->
        match P.reply_of_frame a.reply with
        | Ok r when r.P.r_ok -> acc +. num "instr_total" r.P.r_payload
        | _ -> acc)
      0.0 (of_kind Run)
  in
  (* the compile requests the server compiled, not answered from its cache *)
  let compiled =
    List.filter
      (fun a ->
        match P.reply_of_frame a.reply with
        | Ok r -> r.P.r_ok && field "cached" r.P.r_payload <> Some (Json.Bool true)
        | Error _ -> false)
      (of_kind Compile_only)
  in
  let rtts c = List.map (fun a -> a.rtt) c in
  [
    m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" (ratio (float_of_int (List.length answers)) busy);
    m "op_ms_p50" "ms" (ms (median (rtts answers)));
    m "op_ms_p95" "ms" (ms (quantile (rtts answers) 0.95));
    m "compile_ms_p50" "ms" (ms (median (rtts compiled)));
    m "sim_minstr_per_s" "Minstr/s" (ratio (instrs /. 1e6) busy);
    m "peak_rss_mb" "MB" (peak_rss_mb ());
  ]
  @ quality corpus answers

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let replay_requests = 400

(** Replay answered frames from the benchmark through the layers the
    server composes: [Protocol] decode and resolve, the staged pipeline
    (compile on a miss, simulate for [run]), and reply rendering.  The
    rendered frame must equal the server's reply byte for byte, which
    also makes hits and misses follow the server's.  Returns the serve
    metrics, the summed work seconds and the mismatching requests. *)
let shadow tr k (corpus : entry array) (answers : answer list) =
  let decode = ref 0.0 and resolve = ref 0.0 and render = ref 0.0 in
  let work = ref 0.0 and wait = ref 0.0 and n = ref 0 and mismatches = ref [] in
  let cache =
    Lp_serve.Cache.create
      ~capacity:(Server.default_opts ~socket_path:"").Server.cache_capacity
  in
  let time r f =
    let t0 = now () in
    let v = f () in
    r := !r +. (now () -. t0);
    v
  in
  List.iter
    (fun a ->
      let e = corpus.(a.idx) in
      let frame = String.sub e.frame 0 (String.length e.frame - 1) in
      match time decode (fun () -> P.request_of_frame frame) with
      | Error _ -> ()
      | Ok req -> (
        match
          time resolve (fun () ->
              Result.bind (P.resolve_source req) (fun (src, _) ->
                  Result.map (fun t -> (src, t)) (P.resolve_target req)))
        with
        | Error _ -> ()
        | Ok (src, (machine, opts)) -> (
          let op = { label = Printf.sprintf "request %d" a.idx; source = src; machine;
                     config = req.P.config; opts; globals = []; expect = Reference } in
          let hit = Lp_serve.Cache.find cache e.key in
          let t0 = now () in
          let staged =
            match
              Trace.span tr "op" (fun () ->
                  let c =
                    match hit with
                    | Some c -> c
                    | None -> Stages.compile tr k ~opts ~machine src
                  in
                  (c, if req.P.op = P.Run then Some (Stages.simulate tr k c) else None))
            with
            | r -> Some r
            | exception _ -> None
          in
          let dt = now () -. t0 in
          Trace.end_op tr ~seconds:dt;
          k.Stages.ops <- k.Stages.ops + 1;
          match staged with
          | None -> ()
          | Some (c, o) ->
            let cached = hit <> None in
            if not cached then Lp_serve.Cache.add cache e.key c;
            work := !work +. dt;
            wait := !wait +. (a.rtt -. dt);
            incr n;
            let rendered =
              time render (fun () ->
                  P.ok_frame ~id:req.P.id ~op:req.P.op ~cached
                    (match o with
                    | Some o -> P.payload_of_run c o
                    | None -> P.payload_of_compiled c))
            in
            let agrees = match o with Some o -> Stages.agrees op c o | None -> true in
            if rendered <> a.reply ^ "\n" || not agrees then
              mismatches := op.label :: !mismatches)))
    answers;
  let per x = ratio x (float_of_int (List.length answers)) in
  let per_work x = ratio x (float_of_int !n) in
  ( [
      m "serve.decode_us" "us" (1e6 *. per !decode);
      m "serve.resolve_us" "us" (1e6 *. per !resolve);
      m "serve.render_us" "us" (1e6 *. per_work !render);
      m "serve.work_ms" "ms" (ms (per_work !work));
      m "serve.wait_ms" "ms" (ms (per_work !wait));
    ],
    !work,
    !mismatches )

let server_counters live =
  let j = Server.stats_json live.server in
  let cache = Option.value ~default:Json.Null (field "cache" j) in
  let hits = num "hits" cache and misses = num "misses" cache in
  [
    m "serve.cache_hits" "count" hits;
    m "serve.cache_misses" "count" misses;
    m "serve.cache_hit_ratio" "ratio" (ratio hits (hits +. misses));
    m "serve.shed_overload" "count" (num "shed_overload" j);
    m "serve.retries" "count" (num "serve_fault_retries" j +. num "dispatch_retries" j);
  ]

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let params () =
  [ ("clients", Json.Num (float_of_int (nproc ())));
    ("server_jobs", Json.Num (float_of_int (nproc ())));
    ("corpus", Json.Num (float_of_int corpus_size)) ]

let run ~seed ~seconds ~trace : run_result =
  let ((corpus, live), setup_s) =
    timed_setups ~n:setup_repeats
      (fun () -> let corpus = build_corpus ~seed in (corpus, start corpus))
      (fun (_, live) -> stop live)
  in
  if not trace then begin
    let (answers, busy) =
      closed_loop live.clients corpus ~seconds ~min_requests:quality_prefix
    in
    stop live;
    let metrics = e2e ~setup_s corpus (answers, busy) in
    let (attempted, failed, failures) = check_all corpus answers in
    {
      attempted; failed; failures; metrics;
      deterministic = deterministic_e2e metrics;
      params = params ();
    }
  end
  else begin
    (* a fixed prefix on the fresh server, one request at a time, so the
       server's counters repeat exactly; then the same frames replayed
       through the layers, once untraced and once traced *)
    let c = List.hd live.clients in
    let replay =
      List.init replay_requests (fun i ->
          let s = now () in
          let reply = request c corpus.(i).frame in
          { idx = i; rtt = now () -. s; reply })
    in
    let counters = server_counters live in
    stop live;
    let answers = live.warmup @ replay in
    let (_, untraced_s, _) =
      shadow (Trace.create ~on:false) (Stages.create_counts ()) corpus answers
    in
    let tr = Trace.create ~on:true and k = Stages.create_counts () in
    let (serve, traced_s, mismatches) = shadow tr k corpus answers in
    let problems =
      List.map (fun l -> l ^ ": replay differs from the served reply") mismatches
      @ Trace.unbalanced tr
    in
    Trace.write_chrome tr ~path:"perfbench/_out/trace-serve-mixed.json";
    let layer = Stages.layer_metrics ~timed_ops:k.Stages.ops tr k @ serve @ counters in
    let (attempted, failed, failures) = check_all corpus answers in
    {
      attempted;
      failed = failed + List.length problems;
      failures = failures @ problems;
      metrics =
        layer @ [ m "trace.overhead_pct" "%" (100.0 *. ((traced_s /. untraced_s) -. 1.0)) ];
      deterministic = Stages.deterministic_layer_metrics layer;
      params = params () @ [ ("replayed", Json.Num (float_of_int replay_requests)) ];
    }
  end

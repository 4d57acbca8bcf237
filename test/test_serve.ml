(** The [lpccd] compile server: bounded queue, LRU warm cache, wire
    protocol, the memoised [run] and [profile] replies, the [worker]
    fault point, and
    end-to-end robustness over a real Unix-domain socket — backpressure
    sheds with [E_OVERLOAD], deadlines expire as [E_DEADLINE], malformed
    frames and per-request crashes never take down the connection, and a
    small [serve-bench] replay passes its own acceptance gate including
    byte-identical verification against one-shot [lpcc] results. *)

module Json = Lp_util.Json
module P = Lp_serve.Protocol
module Bqueue = Lp_serve.Bqueue
module Server = Lp_serve.Server
module SB = Lp_serve.Serve_bench

let tmp_socket name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "lp-serve-test-%s-%d.sock" name (Unix.getpid ()))

let with_server ?(tune = fun o -> o) ?ctx name f =
  let socket_path = tmp_socket name in
  let opts = tune (Server.default_opts ~socket_path) in
  let server = Server.start ?ctx opts in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      if Sys.file_exists socket_path then Sys.remove socket_path)
    (fun () -> f socket_path server)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (* a stuck test should fail loudly, not hang the suite *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
  fd

let send_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd s !sent (n - !sent)
  done

(** Read exactly [n] newline-terminated reply frames. *)
let read_frames fd n =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let lines () =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  let complete () =
    (* only count frames that already have their newline *)
    let s = Buffer.contents buf in
    String.fold_left (fun a c -> if c = '\n' then a + 1 else a) 0 s
  in
  let rec loop () =
    if complete () >= n then List.filteri (fun i _ -> i < n) (lines ())
    else
      let r = Unix.read fd chunk 0 (Bytes.length chunk) in
      if r = 0 then Alcotest.failf "server closed with %d/%d replies" (complete ()) n
      else begin
        Buffer.add_subbytes buf chunk 0 r;
        loop ()
      end
  in
  loop ()

let parse_reply line =
  match P.reply_of_frame line with
  | Ok r -> r
  | Error e -> Alcotest.failf "protocol error: %s in %s" e line

let find_reply replies id =
  match List.find_opt (fun r -> r.P.r_id = id) replies with
  | Some r -> r
  | None -> Alcotest.failf "no reply with id %s" (Json.to_compact_string id)

let code_of r =
  match r.P.r_code with Some c -> c | None -> "(ok)"

(* ------------------------------------------------------------------ *)
(* Bounded queue                                                       *)
(* ------------------------------------------------------------------ *)

let test_bqueue () =
  let q = Bqueue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Bqueue.try_push q 1 = `Ok 1);
  Alcotest.(check bool) "push 2" true (Bqueue.try_push q 2 = `Ok 2);
  Alcotest.(check bool) "full at capacity" true (Bqueue.try_push q 3 = `Full);
  Alcotest.(check (option int)) "FIFO pop" (Some 1) (Bqueue.pop q);
  Alcotest.(check bool) "slot freed" true (Bqueue.try_push q 3 = `Ok 2);
  Bqueue.close q;
  Alcotest.(check bool) "closed refuses" true (Bqueue.try_push q 4 = `Closed);
  Alcotest.(check bool) "closed flag" true (Bqueue.closed q);
  Alcotest.(check (option int)) "drains 2" (Some 2) (Bqueue.pop q);
  Alcotest.(check (option int)) "drains 3" (Some 3) (Bqueue.pop q);
  Alcotest.(check (option int)) "then None" None (Bqueue.pop q)

(* ------------------------------------------------------------------ *)
(* Warm cache eviction                                                 *)
(* ------------------------------------------------------------------ *)

module Memo = Lp_util.Memo

(** A key removed and added again is as recent as its new insertion:
    the next eviction takes the older live key, not the re-added one. *)
let test_cache_readd_after_remove () =
  let c = Memo.create ~capacity:2 in
  Memo.add c "a" 1;
  Memo.remove c "a";
  Memo.add c "b" 2;
  Memo.add c "a" 3;
  Memo.add c "c" 4;
  Alcotest.(check int) "at capacity" 2 (Memo.length c);
  Alcotest.(check (option int)) "older b evicted" None (Memo.find c "b");
  Alcotest.(check (option int)) "re-added a kept" (Some 3) (Memo.find c "a");
  Alcotest.(check (option int)) "newest c kept" (Some 4) (Memo.find c "c");
  Alcotest.(check int) "one invalidation" 1 (Memo.invalidations c)

(** A [find] hit makes its key the most recent, so the next eviction
    takes the entry that was not used. *)
let test_cache_hit_refreshes () =
  let c = Memo.create ~capacity:2 in
  Memo.add c "a" 1;
  Memo.add c "b" 2;
  Alcotest.(check (option int)) "a hits" (Some 1) (Memo.find c "a");
  Memo.add c "c" 3;
  Alcotest.(check (option int)) "unused b evicted" None (Memo.find c "b");
  Alcotest.(check (option int)) "used a kept" (Some 1) (Memo.find c "a");
  Alcotest.(check (option int)) "newest c kept" (Some 3) (Memo.find c "c");
  Alcotest.(check int) "hits counted" 3 (Memo.hits c);
  Alcotest.(check int) "misses counted" 1 (Memo.misses c)

(** The serve-mixed key stream through the server's 128 slots: a
    42-key hot set visited in shuffled rounds, with a one-shot key after
    every visit, each missed key added as the server adds it.  Between
    two visits of a hot key at most 41 other hot keys and 83 one-shot
    keys are touched, so every hot visit after the first round must hit;
    insertion-order eviction drops hot keys that are still in use. *)
let test_cache_keeps_hot_set () =
  let c = Memo.create ~capacity:128 in
  let visit key =
    match Memo.find c key with
    | Some () -> true
    | None ->
      Memo.add c key ();
      false
  in
  let rng = Lp_util.Rng.create ~seed:1 in
  let hot = List.init 42 (Printf.sprintf "hot%d") in
  let one_shots = ref 0 in
  for round = 1 to 10 do
    List.iter
      (fun key ->
        if (not (visit key)) && round > 1 then
          Alcotest.failf "round %d: hot key %s missed" round key;
        incr one_shots;
        ignore (visit (Printf.sprintf "once%d" !one_shots)))
      (Lp_util.Rng.shuffle rng hot)
  done;
  Alcotest.(check int) "hits: every hot visit after round 1" (9 * 42)
    (Memo.hits c)

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

let test_protocol_round_trip () =
  let req =
    {
      P.id = Json.Num 7.0;
      version = Some 2;
      op = P.Run;
      src = P.Inline "int main() { return 0; }";
      machine = "pacduo";
      cores = 2;
      config = "pg+dvfs";
      passes = Some "constfold,dce";
      deadline_ms = Some 50;
      budget = Some 20;
      seed = Some 3;
    }
  in
  let frame = P.frame_of_request req in
  Alcotest.(check bool) "frame ends in newline" true
    (String.length frame > 0 && frame.[String.length frame - 1] = '\n');
  match P.request_of_frame (String.sub frame 0 (String.length frame - 1)) with
  | Error d -> Alcotest.failf "round trip failed: %s" (Lp_util.Diag.to_string d)
  | Ok r ->
    Alcotest.(check bool) "round trip preserves every field" true (r = req)

let test_protocol_decode_errors () =
  let expect_decode label frame =
    match P.request_of_frame frame with
    | Ok _ -> Alcotest.failf "%s: must be rejected" label
    | Error d ->
      Alcotest.(check string) (label ^ ": code") "E_DECODE" d.Lp_util.Diag.code;
      Alcotest.(check string) (label ^ ": stage") "serve"
        (Lp_util.Diag.stage_name d.Lp_util.Diag.stage)
  in
  expect_decode "not json" "this is not json";
  expect_decode "not an object" "[1,2,3]";
  expect_decode "missing op" "{}";
  expect_decode "unknown op" {|{"op":"frobnicate"}|};
  expect_decode "run without source" {|{"op":"run"}|};
  expect_decode "both sources"
    {|{"op":"run","source":"int main() { return 0; }","workload":"fir"}|};
  expect_decode "bad deadline type" {|{"op":"ping","deadline_ms":"soon"}|};
  expect_decode "negative deadline" {|{"op":"ping","deadline_ms":-5}|};
  (* best-effort id extraction for decode-error replies *)
  Alcotest.(check bool) "frame_id finds id" true
    (P.frame_id {|{"id":3,"op":"frobnicate"}|} = Json.Num 3.0);
  Alcotest.(check bool) "frame_id degrades to Null" true
    (P.frame_id "garbage" = Json.Null)

(** Version negotiation: absent = v1, v1 and v2 accepted, anything else
    is the stable [E_VERSION], and the v2-only [tune] op is refused on
    v1 frames with [E_VERSION] (not [E_DECODE]). *)
let test_protocol_versioning () =
  let decode label frame =
    match P.request_of_frame frame with
    | Ok r -> Ok r
    | Error d -> Error (label, d)
  in
  (match decode "absent" {|{"op":"ping"}|} with
  | Ok r -> Alcotest.(check bool) "absent means v1" true (r.P.version = None)
  | Error (l, d) -> Alcotest.failf "%s: %s" l (Lp_util.Diag.to_string d));
  (match decode "v2" {|{"op":"ping","version":2}|} with
  | Ok r -> Alcotest.(check bool) "v2 accepted" true (r.P.version = Some 2)
  | Error (l, d) -> Alcotest.failf "%s: %s" l (Lp_util.Diag.to_string d));
  let expect_code label want frame =
    match P.request_of_frame frame with
    | Ok _ -> Alcotest.failf "%s: must be rejected" label
    | Error d -> Alcotest.(check string) label want d.Lp_util.Diag.code
  in
  expect_code "future version" "E_VERSION" {|{"op":"ping","version":3}|};
  expect_code "version zero" "E_VERSION" {|{"op":"ping","version":0}|};
  (* version is checked before the op, so a v3 frame with an unknown op
     still reports the version problem *)
  expect_code "version before op" "E_VERSION"
    {|{"op":"frobnicate","version":7}|};
  expect_code "non-integer version" "E_DECODE"
    {|{"op":"ping","version":"two"}|};
  expect_code "tune needs v2" "E_VERSION" {|{"op":"tune","workload":"fir"}|};
  expect_code "tune without target" "E_DECODE" {|{"op":"tune","version":2}|};
  match P.request_of_frame {|{"op":"tune","version":2,"workload":"fir"}|} with
  | Ok r -> Alcotest.(check bool) "tune decodes under v2" true (r.P.op = P.Tune)
  | Error d -> Alcotest.failf "tune v2: %s" (Lp_util.Diag.to_string d)

(* ------------------------------------------------------------------ *)
(* End-to-end over a real socket                                       *)
(* ------------------------------------------------------------------ *)

let run_frame ?deadline_ms ?(config = "full") ~id src =
  P.frame_of_request
    { P.default_request with P.id; op = P.Run; src; config; deadline_ms }

(** A near-zero deadline on a real workload expires inside the pipeline
    or simulator and surfaces as [E_DEADLINE]; the connection, the
    worker and subsequent requests are untouched.  A request without
    [deadline_ms] gets the server's default deadline. *)
let test_deadline_expiry () =
  (let tune o = { o with Server.default_deadline_ms = 1 } in
   with_server ~tune "deadline-default" @@ fun path _server ->
   let fd = connect path in
   Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
   send_all fd (run_frame ~id:(Json.Num 1.0) (P.Workload "matmul"));
   let dead = parse_reply (List.hd (read_frames fd 1)) in
   Alcotest.(check bool) "default deadline request failed" false dead.P.r_ok;
   Alcotest.(check string) "default deadline E_DEADLINE" "E_DEADLINE"
     (code_of dead));
  with_server "deadline" @@ fun path _server ->
  let fd = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  send_all fd
    (run_frame ~id:(Json.Num 1.0) ~deadline_ms:1 (P.Workload "matmul"));
  send_all fd (run_frame ~id:(Json.Num 2.0) (P.Workload "fir"));
  let replies = List.map parse_reply (read_frames fd 2) in
  let dead = find_reply replies (Json.Num 1.0) in
  Alcotest.(check bool) "deadline request failed" false dead.P.r_ok;
  Alcotest.(check string) "E_DEADLINE" "E_DEADLINE" (code_of dead);
  let ok = find_reply replies (Json.Num 2.0) in
  Alcotest.(check bool) "same connection still serves" true ok.P.r_ok

(** Flooding a 1-worker/1-slot server sheds with transient [E_OVERLOAD]
    instead of queueing without bound — and every request is answered. *)
let test_overload_sheds () =
  let tune o = { o with Server.jobs = 1; queue_capacity = 1 } in
  with_server ~tune "overload" @@ fun path _server ->
  let fd = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let n = 30 in
  let burst = Buffer.create 4096 in
  for i = 1 to n do
    Buffer.add_string burst
      (run_frame ~id:(Json.Num (float_of_int i)) (P.Workload "matmul"))
  done;
  send_all fd (Buffer.contents burst);
  let replies = List.map parse_reply (read_frames fd n) in
  Alcotest.(check int) "every request answered" n (List.length replies);
  let shed =
    List.length (List.filter (fun r -> code_of r = "E_OVERLOAD") replies)
  in
  let ok = List.length (List.filter (fun r -> r.P.r_ok) replies) in
  Alcotest.(check bool) "some load shed" true (shed > 0);
  Alcotest.(check bool) "some load served" true (ok > 0);
  List.iter
    (fun r ->
      if not r.P.r_ok then begin
        Alcotest.(check string) "only overload errors" "E_OVERLOAD" (code_of r);
        Alcotest.(check bool) "overload is transient" true r.P.r_transient
      end)
    replies;
  (* the server survived its own backpressure *)
  send_all fd
    (P.frame_of_request
       { P.default_request with P.id = Json.Num 99.0; op = P.Ping });
  let pong = parse_reply (List.hd (read_frames fd 1)) in
  Alcotest.(check bool) "ping after flood" true pong.P.r_ok

(** Malformed frames and compile-crashing sources get structured
    replies; the connection keeps working after both. *)
let test_crash_isolation () =
  with_server "isolation" @@ fun path _server ->
  let fd = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  (* raw garbage: decode error with a Null id *)
  send_all fd "this is not json\n";
  let bad = parse_reply (List.hd (read_frames fd 1)) in
  Alcotest.(check bool) "decode reply not ok" false bad.P.r_ok;
  Alcotest.(check string) "decode code" "E_DECODE" (code_of bad);
  Alcotest.(check bool) "decode id is Null" true (bad.P.r_id = Json.Null);
  (* a source that breaks the front end: per-request degradation *)
  send_all fd (run_frame ~id:(Json.Num 1.0) (P.Inline "int main( {"));
  let parse_err = parse_reply (List.hd (read_frames fd 1)) in
  Alcotest.(check string) "compile diag code" "E_PARSE" (code_of parse_err);
  (* the same connection still compiles fine afterwards *)
  send_all fd
    (run_frame ~id:(Json.Num 2.0) (P.Inline "int main() { return 42; }"));
  let ok = parse_reply (List.hd (read_frames fd 1)) in
  Alcotest.(check bool) "valid request after crashes" true ok.P.r_ok;
  (match Json.member "ret" ok.P.r_payload with
  | Some (Json.Num n) -> Alcotest.(check (float 0.0)) "computed result" 42.0 n
  | _ -> Alcotest.fail "run reply must carry ret");
  (* server-side counters confirm nothing leaked into E_INTERNAL *)
  send_all fd
    (P.frame_of_request
       { P.default_request with P.id = Json.Num 3.0; op = P.Stats });
  let stats = parse_reply (List.hd (read_frames fd 1)) in
  Alcotest.(check bool) "stats ok" true stats.P.r_ok;
  match
    Option.bind
      (Json.member "stats" stats.P.r_payload)
      (Json.member "internal_errors")
  with
  | Some (Json.Num 0.0) -> ()
  | Some j -> Alcotest.failf "internal errors: %s" (Json.to_compact_string j)
  | None -> Alcotest.fail "stats must expose internal_errors"

(** The warm cache serves repeat compiles ([cached]:true) and the cached
    reply is byte-identical to the first, id aside. *)
let test_cache_reuse () =
  with_server "cache" @@ fun path _server ->
  let fd = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let strip id_fields j =
    match j with
    | Json.Obj fields ->
      Json.Obj (List.filter (fun (k, _) -> not (List.mem k id_fields)) fields)
    | j -> j
  in
  (* sequential round trips: pipelining both would race two workers into
     the same cold cache slot *)
  send_all fd (run_frame ~id:(Json.Num 1.0) (P.Workload "dotprod"));
  let first = parse_reply (List.hd (read_frames fd 1)) in
  send_all fd (run_frame ~id:(Json.Num 2.0) (P.Workload "dotprod"));
  let second = parse_reply (List.hd (read_frames fd 1)) in
  Alcotest.(check bool) "ids echo in order" true
    (first.P.r_id = Json.Num 1.0 && second.P.r_id = Json.Num 2.0);
  Alcotest.(check bool) "first ok" true first.P.r_ok;
  Alcotest.(check bool) "second ok" true second.P.r_ok;
  Alcotest.(check bool) "second served from cache" true
    (Json.member "cached" second.P.r_payload = Some (Json.Bool true));
  Alcotest.(check string) "cached reply byte-identical modulo id/cached"
    (Json.to_compact_string (strip [ "id"; "cached" ] first.P.r_payload))
    (Json.to_compact_string (strip [ "id"; "cached" ] second.P.r_payload))

(** [stats] counts each request once, a cached reply included: three
    identical [compile]s (two answered from the warm cache) and the
    [stats] request itself make 4. *)
let test_stats_counts_requests_once () =
  with_server "stats" @@ fun path _server ->
  let fd = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let compile id =
    P.frame_of_request
      { P.default_request with
        P.id = Json.Num id; op = P.Compile; src = P.Workload "fir" }
  in
  (* sequential round trips, so the second and third hit the cache *)
  List.iter
    (fun id ->
      send_all fd (compile id);
      let r = parse_reply (List.hd (read_frames fd 1)) in
      Alcotest.(check bool) "compile ok" true r.P.r_ok)
    [ 1.0; 2.0; 3.0 ];
  send_all fd
    (P.frame_of_request
       { P.default_request with P.id = Json.Num 4.0; op = P.Stats });
  let stats = parse_reply (List.hd (read_frames fd 1)) in
  match
    Option.bind (Json.member "stats" stats.P.r_payload) (Json.member "requests")
  with
  | Some (Json.Num n) -> Alcotest.(check (float 0.0)) "requests" 4.0 n
  | _ -> Alcotest.fail "stats must expose requests"

(** A server context whose recorder counts simulations ([sim.runs]). *)
let counting_ctx () =
  { Lowpower.Compile.default_ctx with Lowpower.Compile.obs = Lp_obs.Obs.create () }

let sim_runs (ctx : Lowpower.Compile.ctx) =
  Option.value ~default:0
    (List.assoc_opt "sim.runs" (Lp_obs.Obs.counters ctx.Lowpower.Compile.obs))

(** One round trip on [fd]: the raw reply frame. *)
let ask fd frame =
  send_all fd frame;
  List.hd (read_frames fd 1)

(** [frame] without its leading [prefix] (which must be there). *)
let after ~prefix frame =
  let n = String.length prefix in
  if String.length frame >= n && String.sub frame 0 n = prefix then
    String.sub frame n (String.length frame - n)
  else Alcotest.failf "reply %s does not start with %s" frame prefix

(** A warm [run] replies from its cache entry's memo without simulating
    again, and its frame is byte-identical to the cold one apart from
    [id] and [cached]. *)
let test_run_memo () =
  let ctx = counting_ctx () in
  with_server ~ctx "memo" @@ fun path _server ->
  let fd = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let cold = ask fd (run_frame ~id:(Json.Num 1.0) (P.Workload "dotprod")) in
  let warm = ask fd (run_frame ~id:(Json.Num 2.0) (P.Workload "dotprod")) in
  Alcotest.(check bool) "cold reply ok" true (parse_reply cold).P.r_ok;
  Alcotest.(check string) "warm frame byte-identical apart from id/cached"
    (after ~prefix:{|{"id":1,"ok":true,"op":"run",|} cold)
    (after ~prefix:{|{"id":2,"ok":true,"op":"run","cached":true,|} warm);
  Alcotest.(check int) "one simulation for two runs" 1 (sim_runs ctx)

(** A failed simulation never fills the memo: after a [compile] warmed
    the entry, a [run] that expires ([E_DEADLINE]) leaves it empty, so
    the next [run] simulates and only the one after it is memoised. *)
let test_run_memo_skips_failures () =
  let ctx = counting_ctx () in
  with_server ~ctx "memo-fail" @@ fun path _server ->
  let fd = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let reply frame = parse_reply (ask fd frame) in
  let warmed =
    reply
      (P.frame_of_request
         { P.default_request with
           P.id = Json.Num 1.0; op = P.Compile; src = P.Workload "matmul";
           config = "full" })
  in
  Alcotest.(check bool) "compile warms the entry" true warmed.P.r_ok;
  let expired =
    reply (run_frame ~id:(Json.Num 2.0) ~deadline_ms:1 (P.Workload "matmul"))
  in
  Alcotest.(check string) "warm run expires" "E_DEADLINE" (code_of expired);
  Alcotest.(check int) "no simulation completed yet" 0 (sim_runs ctx);
  let again = reply (run_frame ~id:(Json.Num 3.0) (P.Workload "matmul")) in
  Alcotest.(check bool) "next run ok" true again.P.r_ok;
  Alcotest.(check bool) "next run is a cache hit" true
    (Json.member "cached" again.P.r_payload = Some (Json.Bool true));
  Alcotest.(check int) "next run simulated" 1 (sim_runs ctx);
  let memo = reply (run_frame ~id:(Json.Num 4.0) (P.Workload "matmul")) in
  Alcotest.(check bool) "memoised run ok" true memo.P.r_ok;
  Alcotest.(check int) "then the memo answers" 1 (sim_runs ctx)

(** lpccd's worker is a [worker] fault point, keyed [<scope>/<config>]
    like a matrix cell: with [worker*1] armed, the first attempt of a
    [run] fails transiently and the retried attempt succeeds. *)
let test_worker_fault_retried () =
  with_server "worker-fault" @@ fun path _server ->
  let fd = connect path in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Lp_util.Fault.clear ())
  @@ fun () ->
  (match Lp_util.Fault.configure "worker@fir/full*1" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fault spec: %s" e);
  let r = parse_reply (ask fd (run_frame ~id:(Json.Num 1.0) (P.Workload "fir"))) in
  Alcotest.(check bool) "run recovers" true r.P.r_ok;
  let stats =
    parse_reply
      (ask fd
         (P.frame_of_request
            { P.default_request with P.id = Json.Num 2.0; op = P.Stats }))
  in
  match
    Option.bind
      (Json.member "stats" stats.P.r_payload)
      (Json.member "dispatch_retries")
  with
  | Some (Json.Num n) -> Alcotest.(check (float 0.0)) "one retry" 1.0 n
  | _ -> Alcotest.fail "stats must expose dispatch_retries"

(** An armed fault spec bypasses the cache and so the memo: every
    [run] simulates, even of a program served before. *)
let test_run_memo_bypassed_under_faults () =
  let ctx = counting_ctx () in
  with_server ~ctx "memo-faults" @@ fun path _server ->
  let fd = connect path in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Lp_util.Fault.clear ())
  @@ fun () ->
  (* a clause whose scope never matches: armed, but never fires *)
  (match Lp_util.Fault.configure "pre-simulate@no-such-scope" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fault spec: %s" e);
  for i = 1 to 3 do
    let r =
      parse_reply
        (ask fd (run_frame ~id:(Json.Num (float_of_int i)) (P.Workload "dotprod")))
    in
    Alcotest.(check bool) "run ok" true r.P.r_ok;
    Alcotest.(check bool) "never cached" true
      (Json.member "cached" r.P.r_payload = None)
  done;
  Alcotest.(check int) "every run simulated" 3 (sim_runs ctx)

(** The v2 [tune] op end to end: a small-budget tune over the socket
    returns a replayable spec plus the energy delta, echoes the request
    version, and versionless frames keep the v1 reply shape. *)
let test_tune_op () =
  with_server "tune" @@ fun path _server ->
  let fd = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  send_all fd
    (P.frame_of_request
       {
         P.default_request with
         P.id = Json.Num 1.0;
         version = Some 2;
         op = P.Tune;
         src = P.Workload "fir";
         config = "baseline";
         budget = Some 10;
         seed = Some 1;
       });
  let r = parse_reply (List.hd (read_frames fd 1)) in
  Alcotest.(check bool) "tune ok" true r.P.r_ok;
  Alcotest.(check bool) "version echoed" true
    (Json.member "version" r.P.r_payload = Some (Json.Num 2.0));
  (match Json.member "spec" r.P.r_payload with
  | Some (Json.Str spec) -> (
    match Lowpower.Pipeline.parse spec with
    | Ok _ -> ()
    | Error d ->
      Alcotest.failf "returned spec must parse: %s" (Lp_util.Diag.to_string d))
  | _ -> Alcotest.fail "tune reply must carry a spec");
  (match
     ( Json.member "baseline_energy_nj" r.P.r_payload,
       Json.member "tuned_energy_nj" r.P.r_payload )
   with
  | Some (Json.Num b), Some (Json.Num t) ->
    Alcotest.(check bool) "tuned never worse than baseline" true (t <= b)
  | _ -> Alcotest.fail "tune reply must carry both energies");
  (* a v1 frame on the same connection still gets the v1 reply shape *)
  send_all fd
    (P.frame_of_request
       { P.default_request with P.id = Json.Num 2.0; op = P.Ping });
  let pong = parse_reply (List.hd (read_frames fd 1)) in
  Alcotest.(check bool) "v1 ping ok" true pong.P.r_ok;
  Alcotest.(check bool) "no version field in v1 reply" true
    (Json.member "version" pong.P.r_payload = None)

(** The v2 [profile] op end to end: the served artifact is byte-identical
    (once the ["profile"] member is re-serialised) to what the one-shot
    entry points produce, a repeat request is answered from the warm
    cache without changing a byte or simulating again, and the [stats]
    reply carries the per-op latency histogram. *)
let test_profile_op () =
  let ctx = counting_ctx () in
  with_server ~ctx "profile" @@ fun path _server ->
  let fd = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let profile_frame id =
    P.frame_of_request
      {
        P.default_request with
        P.id;
        version = Some 2;
        op = P.Profile;
        src = P.Workload "fir";
      }
  in
  send_all fd (profile_frame (Json.Num 1.0));
  let first = parse_reply (List.hd (read_frames fd 1)) in
  Alcotest.(check bool) "profile ok" true first.P.r_ok;
  let artifact r =
    match Json.member "profile" r.P.r_payload with
    | Some j -> j
    | None -> Alcotest.fail "profile reply must embed the artifact"
  in
  let served = artifact first in
  Alcotest.(check bool) "schema tag" true
    (Json.member "schema" served = Some (Json.Str "lowpower-profile/1"));
  (* byte-identity against the one-shot path: same builder, same
     serialiser, so the strings must match exactly *)
  let w = Lp_workloads.Suite.find_exn "fir" in
  let machine = Lp_machine.Machine.generic ~n_cores:4 () in
  let sim_opts =
    { Lp_sim.Sim.default_options with Lp_sim.Sim.profile = true }
  in
  let expected =
    match
      Lowpower.Compile.run_result
        ~opts:(Lowpower.Compile.full ~n_cores:4)
        ~sim_opts ~machine w.Lp_workloads.Workload.source
    with
    | Ok (_, o) ->
      Json.to_string
        (Lowpower.Profile_report.to_json ~source:"fir"
           ~machine:machine.Lp_machine.Machine.name o)
    | Error d -> Alcotest.failf "one-shot run: %s" (Lp_util.Diag.to_string d)
  in
  Alcotest.(check string) "served artifact byte-identical to one-shot"
    expected (Json.to_string served);
  (* the repeat request hits the warm compile cache and replies with
     the exact same bytes without simulating again *)
  send_all fd (profile_frame (Json.Num 2.0));
  let second = parse_reply (List.hd (read_frames fd 1)) in
  Alcotest.(check bool) "second profile ok" true second.P.r_ok;
  Alcotest.(check bool) "second served from cache" true
    (Json.member "cached" second.P.r_payload = Some (Json.Bool true));
  Alcotest.(check string) "warm artifact byte-identical" expected
    (Json.to_string (artifact second));
  Alcotest.(check int) "one simulation for two profiles" 1 (sim_runs ctx);
  (* the same source sent inline shares the entry, but its artifact
     names its source [inline], so the memoised one cannot answer it *)
  send_all fd
    (P.frame_of_request
       {
         P.default_request with
         P.id = Json.Num 4.0;
         version = Some 2;
         op = P.Profile;
         src = P.Inline w.Lp_workloads.Workload.source;
       });
  let inline = parse_reply (List.hd (read_frames fd 1)) in
  Alcotest.(check bool) "inline copy served from cache" true
    (Json.member "cached" inline.P.r_payload = Some (Json.Bool true));
  Alcotest.(check bool) "inline copy names its own source" true
    (Json.member "source" (artifact inline) = Some (Json.Str "inline"));
  (* a v1 frame must not reach the op *)
  (match P.request_of_frame {|{"op":"profile","workload":"fir"}|} with
  | Ok _ -> Alcotest.fail "profile must require protocol v2"
  | Error d ->
    Alcotest.(check string) "v1 profile refused" "E_VERSION"
      d.Lp_util.Diag.code);
  (* stats surfaces the per-op latency histogram *)
  send_all fd
    (P.frame_of_request
       { P.default_request with P.id = Json.Num 3.0; op = P.Stats });
  let stats = parse_reply (List.hd (read_frames fd 1)) in
  Alcotest.(check bool) "stats ok" true stats.P.r_ok;
  match
    Option.bind
      (Json.member "stats" stats.P.r_payload)
      (fun s ->
        Option.bind (Json.member "latency_ms" s) (Json.member "profile"))
  with
  | Some h -> (
    match Json.member "count" h with
    | Some (Json.Num n) ->
      Alcotest.(check bool) "both profile requests measured" true (n >= 2.0);
      Alcotest.(check bool) "quantiles present" true
        (Json.member "p50_ms" h <> None
        && Json.member "p90_ms" h <> None
        && Json.member "p99_ms" h <> None)
    | _ -> Alcotest.fail "latency histogram must carry a count")
  | None -> Alcotest.fail "stats must carry latency_ms.profile"

(** The full load generator against an in-process server: mixed
    valid/malformed/deadline corpus, byte-identity verification on, and
    the CI acceptance gate must hold. *)
let test_serve_bench_acceptance () =
  with_server "bench" @@ fun path _server ->
  let cfg =
    {
      (SB.default_config ~socket_path:path) with
      SB.requests = 200;
      clients = 2;
      window = 6;
      verify = true;
    }
  in
  match SB.run cfg with
  | Error e -> Alcotest.failf "bench harness failed: %s" e
  | Ok s -> (
    (match SB.acceptance s with
    | Ok () -> ()
    | Error violations ->
      Alcotest.failf "acceptance gate: %s" (String.concat "; " violations));
    Alcotest.(check int) "all entries completed" 200 s.SB.completed;
    Alcotest.(check bool) "corpus exercised the decode path" true
      (s.SB.outcomes.SB.decode_err > 0);
    Alcotest.(check bool) "corpus exercised compile errors" true
      (s.SB.outcomes.SB.compile_err > 0);
    Alcotest.(check bool) "verification actually compared replies" true
      (s.SB.verify_checked > 0))

(** Stop with requests still in flight: drain answers them (or cancels
    cooperatively), the domains join, and the socket file is gone. *)
let test_graceful_drain () =
  let socket_path = tmp_socket "drain" in
  let opts =
    { (Server.default_opts ~socket_path) with Server.jobs = 1 }
  in
  let server = Server.start opts in
  let fd = connect socket_path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  for i = 1 to 4 do
    send_all fd (run_frame ~id:(Json.Num (float_of_int i)) (P.Workload "fir"))
  done;
  Server.request_stop server;
  Alcotest.(check bool) "stop requested" true (Server.stopping server);
  Server.stop server;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket_path);
  (* stopping twice is harmless *)
  Server.stop server

let suite =
  [
    Alcotest.test_case "bounded queue: FIFO, backpressure, close" `Quick
      test_bqueue;
    Alcotest.test_case "cache keeps a key re-added after remove" `Quick
      test_cache_readd_after_remove;
    Alcotest.test_case "cache hit saves an entry from eviction" `Quick
      test_cache_hit_refreshes;
    Alcotest.test_case "cache keeps a hot set among one-shot keys" `Quick
      test_cache_keeps_hot_set;
    Alcotest.test_case "protocol round-trips every field" `Quick
      test_protocol_round_trip;
    Alcotest.test_case "malformed frames decode to E_DECODE" `Quick
      test_protocol_decode_errors;
    Alcotest.test_case "version negotiation and E_VERSION" `Quick
      test_protocol_versioning;
    Alcotest.test_case "tune op over the socket (v2)" `Quick test_tune_op;
    Alcotest.test_case "profile op over the socket (v2)" `Quick
      test_profile_op;
    Alcotest.test_case "deadline expires as E_DEADLINE" `Quick
      test_deadline_expiry;
    Alcotest.test_case "overload sheds transiently, answers everything"
      `Quick test_overload_sheds;
    Alcotest.test_case "per-request crash isolation" `Quick
      test_crash_isolation;
    Alcotest.test_case "warm cache byte-identity" `Quick test_cache_reuse;
    Alcotest.test_case "stats counts each request once" `Quick
      test_stats_counts_requests_once;
    Alcotest.test_case "warm run replies from its memo" `Quick test_run_memo;
    Alcotest.test_case "failed runs are never memoised" `Quick
      test_run_memo_skips_failures;
    Alcotest.test_case "worker fault point retried" `Quick
      test_worker_fault_retried;
    Alcotest.test_case "armed faults bypass the run memo" `Quick
      test_run_memo_bypassed_under_faults;
    Alcotest.test_case "serve-bench acceptance gate end to end" `Slow
      test_serve_bench_acceptance;
    Alcotest.test_case "graceful drain on stop" `Quick test_graceful_drain;
  ]

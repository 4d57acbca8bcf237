(** Load generator for the [lpccd] compile server (see the interface). *)

module Json = Lp_util.Json
module Diag = Lp_util.Diag
module Rng = Lp_util.Rng
module Backoff = Lp_util.Backoff
module Compile = Lowpower.Compile
module Gen = Lp_robust.Gen
module P = Protocol

type config = {
  socket_path : string;
  requests : int;
  clients : int;
  window : int;
  seed : int;
  verify : bool;
}

(* resends of a transiently failed request *)
let client_retries = 8

let default_config ~socket_path =
  {
    socket_path;
    requests = 5000;
    clients = 4;
    window = 8;
    seed = 1;
    verify = false;
  }

type outcomes = {
  ok : int;
  cached : int;
  decode_err : int;
  compile_err : int;
  overload : int;
  deadline : int;
  injected_fault : int;
  internal : int;
  gave_up : int;
}

type summary = {
  cfg : config;
  wall_s : float;
  completed : int;
  sends : int;
  retries : int;
  throughput_rps : float;
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
  outcomes : outcomes;
  verify_checked : int;
  verify_mismatches : int;
  server_crashes : int;
  protocol_errors : int;
  server_stats : Json.t;
}

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

(** One corpus entry: how to render the frame for a given wire id (so
    retries get fresh ids), the request template when the frame is
    well-formed (used for local verification), and whether a successful
    reply is eligible for byte-identity verification. *)
type entry = {
  e_frame : int -> string;
  e_req : P.request option;
  e_verify : bool;
}

let entry_of_req ?(verify = false) (req : P.request) =
  {
    e_frame =
      (fun id ->
        P.frame_of_request { req with P.id = Json.Num (float_of_int id) });
    e_req = Some req;
    e_verify = verify;
  }

let malformed_frames =
  [|
    (fun _ -> "this is not json\n");
    (fun id -> Printf.sprintf "{\"id\":%d,\"op\":\"frobnicate\"}\n" id);
    (fun id -> Printf.sprintf "{\"id\":%d,\"op\":5}\n" id);
    (fun id -> Printf.sprintf "{\"id\":%d,\"op\":\"run\"}\n" id);
    (* deep nesting: the hardened parser's depth bound must answer this,
       not a stack overflow *)
    (fun _ -> String.make 2000 '[' ^ "\n");
    (fun id ->
      Printf.sprintf "{\"id\":%d,\"op\":\"run\",\"workload\":\"fir\",\"cores\":0}\n"
        id);
    (fun _ -> "{\"op\":\"run\",\"source\":\"int main(\n");
    (fun id ->
      Printf.sprintf "{\"id\":%d,\"op\":\"run\",\"workload\":\"no-such\"}\n" id);
    (fun id ->
      Printf.sprintf
        "{\"id\":%d,\"op\":\"run\",\"workload\":\"fir\",\"passes\":\"no,such,pass\"}\n"
        id);
  |]

(** Deterministic corpus: mixed valid work (generated programs from a
    small seed pool so the warm cache gets real hits, bundled
    workloads), malformed frames, compile errors, near-zero deadlines
    and pings. *)
let build_corpus (cfg : config) : entry array =
  let rng = Rng.create ~seed:cfg.seed in
  let gen_cache = Hashtbl.create 32 in
  let gen_source seed =
    match Hashtbl.find_opt gen_cache seed with
    | Some s -> s
    | None ->
      let s = (Gen.generate ~seed).Gen.source in
      Hashtbl.add gen_cache seed s;
      s
  in
  let gen_req op =
    let seed = Rng.int rng 20 in
    let config = Rng.choose rng [ "baseline"; "full"; "pg+dvfs" ] in
    {
      P.default_request with
      P.op;
      src = P.Inline (gen_source seed);
      cores = Rng.choose rng [ 2; 4 ];
      config;
    }
  in
  Array.init cfg.requests (fun _ ->
      let roll = Rng.int rng 100 in
      if roll < 30 then entry_of_req ~verify:true (gen_req P.Run)
      else if roll < 45 then entry_of_req ~verify:true (gen_req P.Compile)
      else if roll < 55 then
        let w = Rng.choose rng [ "fir"; "dotprod"; "fraciter"; "matmul" ] in
        let config = Rng.choose rng [ "baseline"; "full" ] in
        entry_of_req ~verify:true
          { P.default_request with P.op = P.Run; src = P.Workload w; config }
      else if roll < 60 then entry_of_req (gen_req P.Explain)
      else if roll < 65 then
        entry_of_req
          {
            P.default_request with
            P.op = P.Pipeline;
            passes = (if Rng.bool rng then None else Some "constfold,dce");
          }
      else if roll < 75 then
        let f = malformed_frames.(Rng.int rng (Array.length malformed_frames)) in
        { e_frame = f; e_req = None; e_verify = false }
      else if roll < 83 then
        (* near-zero deadline: completes or sheds with E_DEADLINE — both
           legitimate, neither may crash anything *)
        entry_of_req { (gen_req P.Run) with P.deadline_ms = Some 1 }
      else if roll < 91 then
        (* well-formed frame, broken program: stable compile diagnostics *)
        entry_of_req
          {
            P.default_request with
            P.op = P.Compile;
            src =
              P.Inline
                (Rng.choose rng
                   [
                     "int main( { return 0; }";
                     "int main() { return x; }";
                     "int main() { int a[4]; return a[9]; }";
                   ]);
          }
      else entry_of_req { P.default_request with P.op = P.Ping })

(* ------------------------------------------------------------------ *)
(* Client engine                                                       *)
(* ------------------------------------------------------------------ *)

type mcounts = {
  mutable m_ok : int;
  mutable m_cached : int;
  mutable m_decode : int;
  mutable m_compile : int;
  mutable m_overload : int;
  mutable m_deadline : int;
  mutable m_fault : int;
  mutable m_internal : int;
  mutable m_gave_up : int;
  mutable m_sends : int;
  mutable m_retries : int;
  mutable m_completed : int;
  mutable m_crashes : int;
  mutable m_proto : int;
}

type cres = {
  counts : mcounts;
  mutable lats_ms : float list;
  mutable verifs : (P.request * Json.t) list;
      (** successful replies queued for post-run byte verification *)
}

type pend = {
  pd_entry : entry;
  pd_first_sent : float;
  pd_attempt : int;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX path);
    Ok fd
  with Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Printf.sprintf "connect %s: %s" path (Unix.error_message e))

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(** Run one client's share of the corpus over one connection with
    windowed pipelining.  Never raises: every failure lands in the
    returned counters. *)
let run_client (cfg : config) (entries : entry list) ~(id_base : int) : cres =
  let res =
    {
      counts =
        {
          m_ok = 0;
          m_cached = 0;
          m_decode = 0;
          m_compile = 0;
          m_overload = 0;
          m_deadline = 0;
          m_fault = 0;
          m_internal = 0;
          m_gave_up = 0;
          m_sends = 0;
          m_retries = 0;
          m_completed = 0;
          m_crashes = 0;
          m_proto = 0;
        };
      lats_ms = [];
      verifs = [];
    }
  in
  let c = res.counts in
  match connect cfg.socket_path with
  | Error _ ->
    (* each unanswered entry is a missing completion; acceptance trips *)
    c.m_crashes <- c.m_crashes + 1;
    res
  | Ok fd ->
    let next_id = ref id_base in
    let todo = ref entries in
    (* wire-id (compact json) -> pending; frames the server could not
       even extract an id from come back id:null, matched FIFO (the
       acceptor answers frames of one connection in order) *)
    let pending : (string, pend) Hashtbl.t = Hashtbl.create 32 in
    let nullq : (string * pend) Queue.t = Queue.create () in
    let leftover = ref "" in
    let lines = Queue.create () in
    let outstanding () = Hashtbl.length pending + Queue.length nullq in
    let send ?(first_sent = Unix.gettimeofday ()) ?(attempt = 1) entry =
      let id = !next_id in
      incr next_id;
      let frame = entry.e_frame id in
      let pd = { pd_entry = entry; pd_first_sent = first_sent; pd_attempt = attempt } in
      let key = Json.to_compact_string (Json.Num (float_of_int id)) in
      (* a frame the decoder cannot parse at all is echoed with id null *)
      if String.length frame > 6 && String.sub frame 0 6 = "{\"id\":" then
        Hashtbl.replace pending key pd
      else Queue.push (key, pd) nullq;
      c.m_sends <- c.m_sends + 1;
      write_all fd frame
    in
    let resolve key (pd : pend) =
      (match Hashtbl.find_opt pending key with
      | Some _ -> Hashtbl.remove pending key
      | None -> ());
      c.m_completed <- c.m_completed + 1;
      res.lats_ms <-
        ((Unix.gettimeofday () -. pd.pd_first_sent) *. 1e3) :: res.lats_ms
    in
    let retry key (pd : pend) =
      (match Hashtbl.find_opt pending key with
      | Some _ -> Hashtbl.remove pending key
      | None -> ());
      c.m_retries <- c.m_retries + 1;
      Unix.sleepf (Backoff.backoff_s pd.pd_attempt);
      send ~first_sent:pd.pd_first_sent ~attempt:(pd.pd_attempt + 1) pd.pd_entry
    in
    let take_pending (r : P.reply) : (string * pend) option =
      match r.P.r_id with
      | Json.Null ->
        if Queue.is_empty nullq then None else Some (Queue.pop nullq)
      | id -> (
        let key = Json.to_compact_string id in
        match Hashtbl.find_opt pending key with
        | Some pd -> Some (key, pd)
        | None -> None)
    in
    let handle_line line =
      match P.reply_of_frame line with
      | Error _ -> c.m_proto <- c.m_proto + 1
      | Ok r -> (
        match take_pending r with
        | None -> c.m_proto <- c.m_proto + 1
        | Some (key, pd) ->
          if r.P.r_ok then begin
            c.m_ok <- c.m_ok + 1;
            (match Json.member "cached" r.P.r_payload with
            | Some (Json.Bool true) -> c.m_cached <- c.m_cached + 1
            | _ -> ());
            (if cfg.verify && pd.pd_entry.e_verify then
               match pd.pd_entry.e_req with
               | Some req -> res.verifs <- (req, r.P.r_payload) :: res.verifs
               | None -> ());
            resolve key pd
          end
          else
            let code = Option.value ~default:"" r.P.r_code in
            if code = "" then begin
              c.m_proto <- c.m_proto + 1;
              resolve key pd
            end
            else if code = P.code_overload then begin
              c.m_overload <- c.m_overload + 1;
              if pd.pd_attempt <= client_retries then retry key pd
              else begin
                c.m_gave_up <- c.m_gave_up + 1;
                resolve key pd
              end
            end
            else if r.P.r_transient && String.length code >= 8
                    && String.sub code 0 8 = "E_FAULT_" then begin
              if pd.pd_attempt <= client_retries then retry key pd
              else begin
                c.m_fault <- c.m_fault + 1;
                c.m_gave_up <- c.m_gave_up + 1;
                resolve key pd
              end
            end
            else begin
              (if code = P.code_decode then c.m_decode <- c.m_decode + 1
               else if code = Lp_util.Deadline.code then
                 c.m_deadline <- c.m_deadline + 1
               else if String.length code >= 8
                       && String.sub code 0 8 = "E_FAULT_" then
                 c.m_fault <- c.m_fault + 1
               else if code = Diag.code_internal then
                 c.m_internal <- c.m_internal + 1
               else c.m_compile <- c.m_compile + 1);
              resolve key pd
            end)
    in
    let read_more () =
      (* 120 s of silence with work outstanding = a wedged server *)
      match Unix.select [ fd ] [] [] 120.0 with
      | [], _, _ -> Error `Timeout
      | _ -> (
        let bytes = Bytes.create 65536 in
        match Unix.read fd bytes 0 (Bytes.length bytes) with
        | 0 -> Error `Eof
        | n ->
          let data = !leftover ^ Bytes.sub_string bytes 0 n in
          let parts = String.split_on_char '\n' data in
          let rec push = function
            | [] -> ()
            | [ last ] -> leftover := last
            | l :: rest ->
              Queue.push l lines;
              push rest
          in
          push parts;
          Ok ()
        | exception Unix.Unix_error _ -> Error `Eof)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> Ok ()
    in
    let rec pump () =
      while !todo <> [] && outstanding () < cfg.window do
        match !todo with
        | [] -> ()
        | e :: rest ->
          todo := rest;
          send e
      done;
      if outstanding () = 0 && !todo = [] then ()
      else if not (Queue.is_empty lines) then begin
        handle_line (Queue.pop lines);
        pump ()
      end
      else
        match read_more () with
        | Ok () -> pump ()
        | Error (`Eof | `Timeout) ->
          (* connection died with replies pending: a server crash from
             the client's point of view *)
          c.m_crashes <- c.m_crashes + 1
    in
    (try pump () with
    | Unix.Unix_error _ | Sys_error _ -> c.m_crashes <- c.m_crashes + 1);
    (try Unix.close fd with Unix.Unix_error _ -> ());
    res

(* ------------------------------------------------------------------ *)
(* Post-run byte-identity verification                                 *)
(* ------------------------------------------------------------------ *)

(** Canonical bytes of a success reply, id and cache-provenance
    stripped: the two fields that legitimately differ between a served
    and a locally computed result. *)
let canonical_reply_bytes (op : P.op) (payload : (string * Json.t) list) =
  Json.to_compact_string
    (Json.Obj
       (("ok", Json.Bool true) :: ("op", Json.Str (P.op_name op)) :: payload))

let canonical_served_bytes (obj : Json.t) =
  match obj with
  | Json.Obj fields ->
    Json.to_compact_string
      (Json.Obj
         (List.filter (fun (k, _) -> k <> "id" && k <> "cached") fields))
  | other -> Json.to_compact_string other

(** Recompute each verified reply through the same one-shot entry points
    [lpcc run]/[lpcc] uses (default context: no faults, no deadline) and
    compare bytes.  Distinct programs are only compiled once. *)
let verify_replies (verifs : (P.request * Json.t) list) : int * int =
  let memo : (string, string option) Hashtbl.t = Hashtbl.create 64 in
  let expected (req : P.request) : string option =
    let key =
      String.concat "\x00"
        [
          P.op_name req.P.op;
          (match req.P.src with
          | P.Inline s -> "i:" ^ s
          | P.Workload w -> "w:" ^ w
          | P.No_source -> "-");
          req.P.machine;
          string_of_int req.P.cores;
          req.P.config;
          Option.value ~default:"" req.P.passes;
        ]
    in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let v =
        match (P.resolve_target req, P.resolve_source req) with
        | Ok (machine, opts), Ok (src, _) -> (
          match req.P.op with
          | P.Compile -> (
            match Compile.compile_result ~opts ~machine src with
            | Ok compiled ->
              Some
                (canonical_reply_bytes P.Compile
                   (P.payload_of_compiled compiled))
            | Error _ -> None)
          | P.Run -> (
            match Compile.run_result ~opts ~machine src with
            | Ok (compiled, outcome) ->
              Some
                (canonical_reply_bytes P.Run
                   (P.payload_of_run compiled outcome))
            | Error _ -> None)
          | _ -> None)
        | _ -> None
      in
      Hashtbl.add memo key v;
      v
  in
  List.fold_left
    (fun (checked, mismatches) (req, served) ->
      match expected req with
      | None -> (checked, mismatches)
      | Some want ->
        let got = canonical_served_bytes served in
        (checked + 1, if String.equal got want then mismatches else mismatches + 1))
    (0, 0) verifs

(* ------------------------------------------------------------------ *)
(* Orchestration                                                       *)
(* ------------------------------------------------------------------ *)

let fetch_server_stats path =
  match connect path with
  | Error _ -> Json.Null
  | Ok fd ->
    let result =
      try
        write_all fd
          (P.frame_of_request
             { P.default_request with P.op = P.Stats; id = Json.Num 0.0 });
        let buf = Buffer.create 512 in
        let bytes = Bytes.create 4096 in
        let rec read_line () =
          match Unix.select [ fd ] [] [] 5.0 with
          | [], _, _ -> Json.Null
          | _ -> (
            match Unix.read fd bytes 0 (Bytes.length bytes) with
            | 0 -> Json.Null
            | n ->
              Buffer.add_subbytes buf bytes 0 n;
              let s = Buffer.contents buf in
              if String.contains s '\n' then
                match P.reply_of_frame (List.hd (String.split_on_char '\n' s)) with
                | Ok r ->
                  Option.value ~default:Json.Null
                    (Json.member "stats" r.P.r_payload)
                | Error _ -> Json.Null
              else read_line ())
        in
        read_line ()
      with Unix.Unix_error _ | Sys_error _ -> Json.Null
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    result

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

let run (cfg : config) : (summary, string) result =
  if cfg.requests < 1 then Error "requests must be >= 1"
  else begin
    let corpus = build_corpus cfg in
    let clients = max 1 cfg.clients in
    let shares =
      List.init clients (fun k ->
          Array.to_list corpus
          |> List.filteri (fun i _ -> i mod clients = k))
    in
    (* fail fast if nobody is listening, before spawning domains *)
    match connect cfg.socket_path with
    | Error e -> Error e
    | Ok probe ->
      (try Unix.close probe with Unix.Unix_error _ -> ());
      let t0 = Unix.gettimeofday () in
      let domains =
        List.mapi
          (fun k share ->
            Domain.spawn (fun () ->
                run_client cfg share ~id_base:((k + 1) * 10_000_000)))
          shares
      in
      let results = List.map Domain.join domains in
      let wall_s = Unix.gettimeofday () -. t0 in
      let sum f = List.fold_left (fun acc r -> acc + f r.counts) 0 results in
      let lats =
        Array.of_list (List.concat_map (fun r -> r.lats_ms) results)
      in
      Array.sort compare lats;
      let verifs = List.concat_map (fun r -> r.verifs) results in
      let verify_checked, verify_mismatches =
        if cfg.verify then verify_replies verifs else (0, 0)
      in
      let completed = sum (fun c -> c.m_completed) in
      Ok
        {
          cfg;
          wall_s;
          completed;
          sends = sum (fun c -> c.m_sends);
          retries = sum (fun c -> c.m_retries);
          throughput_rps =
            (if wall_s > 0.0 then float_of_int completed /. wall_s else 0.0);
          p50_ms = percentile lats 0.50;
          p99_ms = percentile lats 0.99;
          max_ms = (if Array.length lats = 0 then 0.0 else lats.(Array.length lats - 1));
          outcomes =
            {
              ok = sum (fun c -> c.m_ok);
              cached = sum (fun c -> c.m_cached);
              decode_err = sum (fun c -> c.m_decode);
              compile_err = sum (fun c -> c.m_compile);
              overload = sum (fun c -> c.m_overload);
              deadline = sum (fun c -> c.m_deadline);
              injected_fault = sum (fun c -> c.m_fault);
              internal = sum (fun c -> c.m_internal);
              gave_up = sum (fun c -> c.m_gave_up);
            };
          verify_checked;
          verify_mismatches;
          server_crashes = sum (fun c -> c.m_crashes);
          protocol_errors = sum (fun c -> c.m_proto);
          server_stats = fetch_server_stats cfg.socket_path;
        }
  end

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let summary_json (s : summary) : Json.t =
  let n x = Json.Num (float_of_int x) in
  Json.Obj
    [
      ("schema", Json.Str "lowpower-bench-serve/1");
      ("requests", n s.cfg.requests);
      ("clients", n s.cfg.clients);
      ("window", n s.cfg.window);
      ("seed", n s.cfg.seed);
      ("wall_s", Json.Num s.wall_s);
      ("completed", n s.completed);
      ("sends", n s.sends);
      ("retries", n s.retries);
      ("throughput_rps", Json.Num s.throughput_rps);
      ( "latency_ms",
        Json.Obj
          [
            ("p50", Json.Num s.p50_ms);
            ("p99", Json.Num s.p99_ms);
            ("max", Json.Num s.max_ms);
          ] );
      ( "outcomes",
        Json.Obj
          [
            ("ok", n s.outcomes.ok);
            ("cached", n s.outcomes.cached);
            ("decode_err", n s.outcomes.decode_err);
            ("compile_err", n s.outcomes.compile_err);
            ("overload", n s.outcomes.overload);
            ("deadline", n s.outcomes.deadline);
            ("injected_fault", n s.outcomes.injected_fault);
            ("internal", n s.outcomes.internal);
            ("gave_up", n s.outcomes.gave_up);
          ] );
      ( "verify",
        Json.Obj
          [
            ("checked", n s.verify_checked);
            ("mismatches", n s.verify_mismatches);
          ] );
      ("server_crashes", n s.server_crashes);
      ("protocol_errors", n s.protocol_errors);
      ("server_stats", s.server_stats);
    ]

let to_text (s : summary) =
  let b = Buffer.create 512 in
  let o = s.outcomes in
  Printf.bprintf b "serve-bench: %d requests, %d clients, window %d, seed %d\n"
    s.cfg.requests s.cfg.clients s.cfg.window s.cfg.seed;
  Printf.bprintf b "  completed %d/%d in %.2f s (%.1f req/s, %d resends)\n"
    s.completed s.cfg.requests s.wall_s s.throughput_rps s.retries;
  Printf.bprintf b "  latency p50 %.2f ms, p99 %.2f ms, max %.2f ms\n" s.p50_ms
    s.p99_ms s.max_ms;
  Printf.bprintf b
    "  ok %d (cached %d), decode %d, compile-err %d, overload %d, deadline %d\n"
    o.ok o.cached o.decode_err o.compile_err o.overload o.deadline;
  Printf.bprintf b
    "  injected-fault %d, internal %d, gave-up %d, crashes %d, protocol %d\n"
    o.injected_fault o.internal o.gave_up s.server_crashes s.protocol_errors;
  if s.cfg.verify then
    Printf.bprintf b "  verify: %d checked, %d mismatches\n" s.verify_checked
      s.verify_mismatches;
  Buffer.contents b

let acceptance (s : summary) : (unit, string list) result =
  let bad = ref [] in
  let check cond msg = if not cond then bad := msg :: !bad in
  check (s.server_crashes = 0)
    (Printf.sprintf "%d connection(s) died with replies pending"
       s.server_crashes);
  check (s.protocol_errors = 0)
    (Printf.sprintf "%d protocol violation(s)" s.protocol_errors);
  check (s.outcomes.internal = 0)
    (Printf.sprintf "%d E_INTERNAL repl(ies)" s.outcomes.internal);
  check
    (s.completed = s.cfg.requests)
    (Printf.sprintf "only %d/%d requests completed" s.completed s.cfg.requests);
  check (s.verify_mismatches = 0)
    (Printf.sprintf "%d byte-identity mismatch(es)" s.verify_mismatches);
  if !bad = [] then Ok () else Error (List.rev !bad)

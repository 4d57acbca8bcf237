(** See the interface for the contract.  One mutex guards all mutable
    state: spans arrive from every domain the evaluation matrix fans out
    over, and counters must aggregate deterministically (sums commute).
    The disabled recorder never touches the mutex or the clock. *)

type arg = Str of string | Int of int | Float of float

type span = {
  sp_name : string;
  sp_cat : string;
  sp_pid : int;
  sp_tid : int;
  sp_start_ns : float;
  sp_dur_ns : float;
  sp_depth : int;
  sp_args : (string * arg) list;
}

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  h_buckets : int array;  (** bucket [i] counts values in [2^(i-1), 2^i) *)
}

type t = {
  on : bool;
  clock : Clock.t;
  mutex : Mutex.t;
  mutable rev_spans : span list;  (** newest first *)
  mutable n_spans : int;
  ctrs : (string, int) Hashtbl.t;
  gaug : (string, float) Hashtbl.t;
  hsts : (string, hist) Hashtbl.t;
  depths : (int, int) Hashtbl.t;  (** wall tid -> currently open spans *)
}

let wall_pid = 1
let sim_pid = 2

let make ~on ~clock =
  {
    on;
    clock;
    mutex = Mutex.create ();
    rev_spans = [];
    n_spans = 0;
    ctrs = Hashtbl.create 16;
    gaug = Hashtbl.create 8;
    hsts = Hashtbl.create 8;
    depths = Hashtbl.create 8;
  }

let disabled = make ~on:false ~clock:(fun () -> 0.0)
let create ?(clock = Clock.monotonic) () = make ~on:true ~clock
let enabled t = t.on

let now_ns t = if t.on then t.clock () else Clock.monotonic ()

let self_tid () = (Domain.self () :> int)

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let depth_of t tid = Option.value ~default:0 (Hashtbl.find_opt t.depths tid)

let push t sp =
  t.rev_spans <- sp :: t.rev_spans;
  t.n_spans <- t.n_spans + 1

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let span t ?(cat = "") ?(args = []) name f =
  if not t.on then f ()
  else begin
    let tid = self_tid () in
    let depth =
      locked t (fun () ->
          let d = depth_of t tid in
          Hashtbl.replace t.depths tid (d + 1);
          d)
    in
    let t0 = t.clock () in
    Fun.protect
      ~finally:(fun () ->
        let dur = t.clock () -. t0 in
        locked t (fun () ->
            Hashtbl.replace t.depths tid (depth_of t tid - 1);
            push t
              {
                sp_name = name;
                sp_cat = cat;
                sp_pid = wall_pid;
                sp_tid = tid;
                sp_start_ns = t0;
                sp_dur_ns = dur;
                sp_depth = depth;
                sp_args = args;
              }))
      f
  end

let emit_span t ?(cat = "") ?(args = []) ?(pid = 1) ?tid ~start_ns ~dur_ns name =
  if t.on then begin
    let tid = match tid with Some i -> i | None -> self_tid () in
    locked t (fun () ->
        let depth = if pid = wall_pid then depth_of t tid else 0 in
        push t
          {
            sp_name = name;
            sp_cat = cat;
            sp_pid = pid;
            sp_tid = tid;
            sp_start_ns = start_ns;
            sp_dur_ns = dur_ns;
            sp_depth = depth;
            sp_args = args;
          })
  end

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)
(* ------------------------------------------------------------------ *)

let add t name n =
  if t.on && n <> 0 then
    locked t (fun () ->
        let v = Option.value ~default:0 (Hashtbl.find_opt t.ctrs name) in
        Hashtbl.replace t.ctrs name (v + n))

let set_gauge t name v =
  if t.on then locked t (fun () -> Hashtbl.replace t.gaug name v)

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let hist_buckets = 64

let hist_create () = { h_count = 0; h_sum = 0.0; h_buckets = Array.make hist_buckets 0 }

(* bucket [i] holds values in [2^(i-1), 2^i): the value's binary
   exponent, clamped.  Everything below 1 (and any non-finite or
   non-positive junk) lands in bucket 0, so a quantile is always an
   upper bound, never an undershoot *)
let bucket_of v =
  if not (Float.is_finite v) || v < 1.0 then 0
  else
    let (_, e) = Float.frexp v in
    if e >= hist_buckets then hist_buckets - 1 else e

let hist_record (h : hist) v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let hist_merge_into ~into:(dst : hist) (src : hist) =
  dst.h_count <- dst.h_count + src.h_count;
  dst.h_sum <- dst.h_sum +. src.h_sum;
  Array.iteri (fun i n -> dst.h_buckets.(i) <- dst.h_buckets.(i) + n)
    src.h_buckets

let hist_copy (h : hist) =
  { h_count = h.h_count; h_sum = h.h_sum; h_buckets = Array.copy h.h_buckets }

let hist_count h = h.h_count
let hist_sum h = h.h_sum

let hist_quantile (h : hist) q =
  if h.h_count = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = Float.max 1.0 (Float.round (q *. float_of_int h.h_count)) in
    let acc = ref 0 in
    let b = ref 0 in
    (try
       for i = 0 to hist_buckets - 1 do
         acc := !acc + h.h_buckets.(i);
         if float_of_int !acc >= rank then begin
           b := i;
           raise Exit
         end
       done;
       b := hist_buckets - 1
     with Exit -> ());
    (* upper bound of the bucket: the quantile is at most this *)
    Float.ldexp 1.0 !b
  end

let hist_render (h : hist) =
  Printf.sprintf "count=%d sum=%.3f p50<=%g p90<=%g p99<=%g" h.h_count h.h_sum
    (hist_quantile h 0.5) (hist_quantile h 0.9) (hist_quantile h 0.99)

let record_hist t name v =
  if t.on then
    locked t (fun () ->
        let h =
          match Hashtbl.find_opt t.hsts name with
          | Some h -> h
          | None ->
            let h = hist_create () in
            Hashtbl.replace t.hsts name h;
            h
        in
        hist_record h v)

let hist_of t name =
  locked t (fun () -> Option.map hist_copy (Hashtbl.find_opt t.hsts name))

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let spans t = locked t (fun () -> List.rev t.rev_spans)
let span_count t = locked t (fun () -> t.n_spans)

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let counters t = locked t (fun () -> sorted_bindings t.ctrs)
let gauges t = locked t (fun () -> sorted_bindings t.gaug)

let hists t =
  locked t (fun () ->
      List.sort compare
        (Hashtbl.fold (fun k h acc -> (k, hist_copy h) :: acc) t.hsts []))

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

module Json = Lp_util.Json

let arg_json = function
  | Str s -> Printf.sprintf "\"%s\"" (Json.escape s)
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f

let args_json = function
  | [] -> ""
  | args ->
    let fields =
      List.map
        (fun (k, v) -> Printf.sprintf "\"%s\":%s" (Json.escape k) (arg_json v))
        args
    in
    Printf.sprintf ",\"args\":{%s}" (String.concat "," fields)

let us ns = ns /. 1e3

let span_json sp =
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
     \"pid\":%d,\"tid\":%d%s}"
    (Json.escape sp.sp_name)
    (Json.escape (if sp.sp_cat = "" then "misc" else sp.sp_cat))
    (us sp.sp_start_ns) (us sp.sp_dur_ns) sp.sp_pid sp.sp_tid
    (args_json sp.sp_args)

let chrome_string t =
  let (sps, ctrs, gaug) =
    locked t (fun () ->
        (List.rev t.rev_spans, sorted_bindings t.ctrs, sorted_bindings t.gaug))
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let first = ref true in
  let emit line =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf line
  in
  emit
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\
        \"args\":{\"name\":\"wall clock\"}}"
       wall_pid);
  emit
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\
        \"args\":{\"name\":\"simulated time\"}}"
       sim_pid);
  List.iter (fun sp -> emit (span_json sp)) sps;
  (* counters and gauges: one sample each, at the end of the trace *)
  let t_end =
    List.fold_left
      (fun acc sp ->
        if sp.sp_pid = wall_pid then Float.max acc (sp.sp_start_ns +. sp.sp_dur_ns)
        else acc)
      0.0 sps
  in
  List.iter
    (fun (name, v) ->
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":%d,\"tid\":0,\
            \"args\":{\"value\":%d}}"
           (Json.escape name) (us t_end) wall_pid v))
    ctrs;
  List.iter
    (fun (name, v) ->
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":%d,\"tid\":0,\
            \"args\":{\"value\":%g}}"
           (Json.escape name) (us t_end) wall_pid v))
    gaug;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_chrome t ~path = Lp_util.Json.write_file ~path (chrome_string t)

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

let summary t =
  let (sps, ctrs, gaug, hsts) =
    locked t (fun () ->
        ( List.rev t.rev_spans,
          sorted_bindings t.ctrs,
          sorted_bindings t.gaug,
          List.sort compare
            (Hashtbl.fold (fun k h acc -> (k, hist_copy h) :: acc) t.hsts [])
        ))
  in
  let agg = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let key = (sp.sp_cat, sp.sp_name) in
      let (n, total) =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt agg key)
      in
      Hashtbl.replace agg key (n + 1, total +. sp.sp_dur_ns))
    sps;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "== telemetry summary ==\n";
  Buffer.add_string buf "spans (cat/name, count, total ms):\n";
  List.iter
    (fun ((cat, name), (n, total)) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-40s %6d %12.3f\n"
           ((if cat = "" then "misc" else cat) ^ "/" ^ name)
           n (total /. 1e6)))
    (sorted_bindings agg);
  if ctrs <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf (Printf.sprintf "  %-40s %d\n" name v))
      ctrs
  end;
  if gaug <> [] then begin
    Buffer.add_string buf "gauges:\n";
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf (Printf.sprintf "  %-40s %g\n" name v))
      gaug
  end;
  if hsts <> [] then begin
    Buffer.add_string buf "histograms:\n";
    List.iter
      (fun (name, h) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-40s %s\n" name (hist_render h)))
      hsts
  end;
  Buffer.contents buf

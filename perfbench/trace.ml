(** In-memory span recorder for the traced run.

    Spans are recorded by the benchmark around its own calls into each
    layer (never inside the program), kept in memory, and written out as
    Chrome trace-event JSON when the run ends.  A span's self time is
    its duration minus the time its child spans cover; allocation is
    attributed the same way, from the calling domain's [Gc.counters]. *)

type span = {
  name : string;
  op : int;                 (** index of the op the span belongs to *)
  start : float;            (** host seconds *)
  mutable dur : float;
  mutable child : float;    (** seconds covered by child spans *)
  mutable words : float;    (** words allocated inside the span *)
  mutable child_words : float;
}

type t = {
  on : bool;
  mutable spans : span list;  (** closed spans, newest first *)
  mutable stack : span list;  (** open spans, innermost first *)
  mutable op : int;
  mutable outside : float;
      (** op seconds as the caller measured them, around the op spans *)
}

let create ~on = { on; spans = []; stack = []; op = 0; outside = 0.0 }

(** Close op [t.op]: the caller measured it at [seconds] from outside
    its ["op"] span. *)
let end_op t ~seconds =
  t.op <- t.op + 1;
  t.outside <- t.outside +. seconds

(** Run [f] inside a span named [name] (a layer name, or ["op"] for the
    whole op, whose self time is the "other" residual). *)
let span t name f =
  if not t.on then f ()
  else begin
    let s =
      { name; op = t.op; start = Common.now (); dur = 0.0; child = 0.0;
        words = 0.0; child_words = 0.0 }
    in
    let w0 = Common.alloc_words () in
    t.stack <- s :: t.stack;
    let close () =
      s.dur <- Common.now () -. s.start;
      s.words <- Common.alloc_words () -. w0;
      t.stack <- List.tl t.stack;
      (match t.stack with
      | p :: _ ->
        p.child <- p.child +. s.dur;
        p.child_words <- p.child_words +. s.words
      | [] -> ());
      t.spans <- s :: t.spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(** Self seconds and self words of every span named [name] (of the ops
    numbered below [first], when given). *)
let self ?(first = max_int) t name =
  List.fold_left
    (fun (sec, words) s ->
      if s.name = name && s.op < first then
        (sec +. (s.dur -. s.child), words +. (s.words -. s.child_words))
      else (sec, words))
    (0.0, 0.0) t.spans

(** The self times of all spans (the layers plus the ["other"] residual
    of the op spans) must add up to the op time the callers measured
    outside the spans, within 2% and 1 ms: a span outside an op, or op
    work outside its span, breaks the sum.  The failure, if so. *)
let unbalanced t =
  let selves = List.fold_left (fun a s -> a +. (s.dur -. s.child)) 0.0 t.spans in
  if Float.abs (selves -. t.outside) <= (0.02 *. t.outside) +. 1e-3 then []
  else
    [ Printf.sprintf "layer self times sum to %.6fs, ops took %.6fs" selves t.outside ]

(** Chrome trace-event JSON of every span (oldest first), one track. *)
let write_chrome t ~path =
  let spans = List.rev t.spans in
  let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"self_us\":%.3f,\"self_words\":%.0f}}\n"
            (if i = 0 then "" else ",")
            s.name
            ((s.start -. t0) *. 1e6)
            (s.dur *. 1e6) s.op
            ((s.dur -. s.child) *. 1e6)
            (s.words -. s.child_words))
        spans;
      output_string oc "]}\n")

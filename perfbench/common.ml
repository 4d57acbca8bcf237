(** Shared pieces of the benchmark: clocks and statistics, the op record
    the compile workloads run, the untraced `lpcc run` path, and the
    observable-result digest the correctness oracle compares. *)

module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module Sim = Lp_sim.Sim
module Ledger = Lp_power.Energy_ledger
module Diag = Lp_util.Diag
module Json = Lp_util.Json

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(** Linearly interpolated quantile ([q] in [0, 1]); [0.] when empty. *)
let quantile (xs : float list) q =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(** Geometric mean of the positive values; [0.] when there are none.
    The values are summed in sorted order, so the result does not depend
    on the order they arrive in. *)
let geomean (xs : float list) =
  match List.sort compare (List.filter (fun x -> x > 0.0) xs) with
  | [] -> 0.0
  | pos ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0.0 pos
      /. float_of_int (List.length pos))

let ratio num den = if den = 0.0 then 0.0 else num /. den

(** The elements of [xs] grouped by [key], in key order; each group keeps
    the order of [xs]. *)
let group_by ~key xs =
  let t = Hashtbl.create 64 in
  List.iter
    (fun x ->
      let k = key x in
      Hashtbl.replace t k (x :: Option.value ~default:[] (Hashtbl.find_opt t k)))
    xs;
  List.map
    (fun (_, g) -> List.rev g)
    (List.sort (fun (a, _) (b, _) -> compare a b) (List.of_seq (Hashtbl.to_seq t)))

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* The speed of a shared host drifts (by up to 1.6x within seconds on a
   2-vCPU KVM guest), for reasons a guest cannot see.  So every
   host-time metric is scaled to a reference speed: a fixed probe,
   written here and calling none of the libraries under test, runs next
   to the work it scales, and the work's seconds are multiplied by
   [probe_ref_s] over the probe's own seconds.  The probe allocates next
   to nothing (a few thousand words), so the heap the work leaves behind
   barely changes its speed. *)

module Probe = struct
  type tree = Leaf of int | Node of tree * tree * int

  let state = ref 12345

  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state

  let rec build d =
    if d = 0 then Leaf (next () land 15)
    else
      let l = build (d - 1) in
      let r = build (d - 1) in
      Node (l, r, next () land 3)

  let tree = build 13
  let keys = Array.init 1024 (fun i -> "v" ^ string_of_int i)

  let table =
    let h = Hashtbl.create 1024 in
    Array.iteri (fun i k -> Hashtbl.replace h k i) keys;
    h

  module Int_map = Map.Make (Int)

  let map =
    List.fold_left
      (fun m i -> Int_map.add (i * 7919 land 4095) i m)
      Int_map.empty (List.init 2048 Fun.id)

  let floats = Array.init 4096 (fun i -> float_of_int (i * 7 land 255) *. 1.5)

  let rec eval = function
    | Leaf n -> n
    | Node (a, b, op) -> (
      let x = eval a and y = eval b in
      match op with
      | 0 -> x + y
      | 1 -> x * y land 0xffff
      | 2 -> x lxor y
      | _ -> x - y)

  (** Tree walking, hash and map lookups, and a float loop. *)
  let work () =
    let acc = ref 0 in
    for r = 0 to 1 do
      acc := !acc + eval tree + r
    done;
    for i = 0 to 4095 do
      acc :=
        !acc + Hashtbl.find table keys.(i land 1023)
        + Option.value ~default:1 (Int_map.find_opt (i * 13 land 4095) map)
    done;
    let f = ref 0.0 in
    for r = 1 to 8 do
      for i = 1 to 4095 do
        f := !f +. (floats.(i) *. floats.(i - 1) /. float_of_int r)
      done
    done;
    ignore (Sys.opaque_identity (!acc, !f))
end

(** Seconds one probe takes on the reference host.  Scaled host times
    read as on a host where the probe takes exactly this long. *)
let probe_ref_s = 1e-3

(** Seconds one probe takes now. *)
let probe () =
  let t0 = now () in
  Probe.work ();
  now () -. t0

(** The factor that scales host seconds, measured between probes of [p0]
    and [p1] seconds, to the reference speed. *)
let speed p0 p1 = probe_ref_s /. ((p0 +. p1) /. 2.0)

(** Seconds of the probe run on [n] domains at once, averaged: the
    host's speed for work that keeps [n] domains busy. *)
let probe_all n =
  let ready = Atomic.make 0 in
  let one () =
    Atomic.incr ready;
    while Atomic.get ready < n do Domain.cpu_relax () done;
    probe ()
  in
  let ps = List.map Domain.join (List.init n (fun _ -> Domain.spawn one)) in
  List.fold_left ( +. ) 0.0 ps /. float_of_int n

(** [f ()] with the speed factor of the host while it ran. *)
let probed f =
  let p0 = probe () in
  let v = f () in
  (v, speed p0 (probe ()))

(** Host cores: the size of every client set, server and pool. *)
let nproc () = max 1 (Domain.recommended_domain_count ())

(** [List.map f xs] over a fresh pool of [nproc] domains. *)
let pool_map f xs =
  let pool = Lp_util.Domain_pool.create ~jobs:(nproc ()) () in
  Fun.protect
    ~finally:(fun () -> Lp_util.Domain_pool.shutdown pool)
    (fun () -> Lp_util.Domain_pool.parallel_map ~pool f xs)

(** Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

(** Words allocated in the minor heap by the calling domain so far.
    (Direct major-heap allocations are left out: their count, derived
    from the promoted and major counters, moves with GC timing.) *)
let alloc_words () = Gc.minor_words ()

(* ------------------------------------------------------------------ *)
(* Ops and their observable results                                    *)
(* ------------------------------------------------------------------ *)

(** What a correct op produces.  [Reference] ops are checked after
    timing against the baseline configuration on the interpretive
    stepper. *)
type expect =
  | Result of string  (** observable digest *)
  | Code of string    (** an expected diagnostic, by exact code *)
  | Reference

(** One compile-then-simulate op: the `lpcc run` path. *)
type op = {
  label : string;
  source : string;
  machine : Machine.t;
  config : string;
  opts : Compile.options;
  globals : string list;  (** [check_globals] of the program *)
  mutable expect : expect;
}

let render_value = function
  | Lp_sim.Value.Vint i -> string_of_int i
  | Lp_sim.Value.Vfloat f -> Printf.sprintf "%h" f

let render_ret (o : Sim.outcome) =
  match o.Sim.ret with None -> "none" | Some v -> render_value v

(** Digest of [main]'s return value and the final contents of the
    program's result globals. *)
let observable ~globals (o : Sim.outcome) =
  let b = Buffer.create 256 in
  Buffer.add_string b (render_ret o);
  List.iter
    (fun g ->
      Buffer.add_char b ';';
      Buffer.add_string b g;
      Buffer.add_char b '=';
      match Sim.shared_array o g with
      | None -> Buffer.add_string b "?"
      | Some a ->
        Array.iter
          (fun v ->
            Buffer.add_string b (render_value v);
            Buffer.add_char b ',')
          a)
    globals;
  Digest.to_hex (Digest.string (Buffer.contents b))

(** What one op produced, with its host-time split. *)
type summary = {
  code : string option;  (** diagnostic code when the op failed *)
  digest : string;       (** {!observable}; [""] on failure *)
  energy_nj : float;
  duration_ns : float;
  instrs : int;          (** simulated instructions *)
  ir_instrs : int;       (** IR instructions of the compiled program *)
  implicit_wakeups : int;
  compile_s : float;
  sim_s : float;
}

let failed_summary ~compile_s code =
  {
    code = Some code;
    digest = "";
    energy_nj = 0.0;
    duration_ns = 0.0;
    instrs = 0;
    ir_instrs = 0;
    implicit_wakeups = 0;
    compile_s;
    sim_s = 0.0;
  }

let summarize ~globals ~compile_s ~sim_s (c : Compile.compiled)
    (o : Sim.outcome) =
  {
    code = None;
    digest = observable ~globals o;
    energy_nj = Ledger.total o.Sim.energy;
    duration_ns = o.Sim.duration_ns;
    instrs = o.Sim.instr_total;
    ir_instrs = Lp_ir.Prog.total_instrs c.Compile.prog;
    implicit_wakeups = o.Sim.implicit_wakeups;
    compile_s;
    sim_s;
  }

(** [s] with its host times multiplied by [f] (see {!speed}). *)
let scaled f s = { s with compile_s = s.compile_s *. f; sim_s = s.sim_s *. f }

(** The repeats of one op as one summary: their median host times. *)
let typical (reps : summary list) =
  let s = List.hd reps in
  { s with
    compile_s = median (List.map (fun s -> s.compile_s) reps);
    sim_s = median (List.map (fun s -> s.sim_s) reps) }

let diag_code e =
  match Compile.diag_of_exn e with
  | Some d -> d.Diag.code
  | None -> "E_CRASH:" ^ Printexc.to_string e

(** Run [op] through the public entry points exactly as [lpcc run] does:
    {!Compile.compile_result}, then {!Compile.simulate_compiled}. *)
let run_op ?(sim_opts = Sim.default_options) (op : op) : summary =
  let t0 = now () in
  match Compile.compile_result ~opts:op.opts ~machine:op.machine op.source with
  | exception e -> failed_summary ~compile_s:(now () -. t0) (diag_code e)
  | Error d -> failed_summary ~compile_s:(now () -. t0) d.Diag.code
  | Ok c -> (
    let t1 = now () in
    match Compile.simulate_compiled ~sim_opts c with
    | exception e -> failed_summary ~compile_s:(t1 -. t0) (diag_code e)
    | o ->
      summarize ~globals:op.globals ~compile_s:(t1 -. t0)
        ~sim_s:(now () -. t1) c o)

(** The reference result of a program: [baseline] on [generic-4c],
    simulated by the interpretive reference stepper. *)
let reference ~globals source =
  run_op
    ~sim_opts:{ Sim.default_options with Sim.predecode = false }
    {
      label = "reference";
      source;
      machine = Machine.generic ();
      config = "baseline";
      opts = Compile.baseline;
      globals;
      expect = Reference;
    }

(** Why [s] is wrong for [op], if it is. *)
let check (op : op) (s : summary) : string option =
  let bad fmt = Printf.ksprintf (fun m -> Some (op.label ^ ": " ^ m)) fmt in
  match (op.expect, s.code) with
  | Code want, Some got when want = got -> None
  | Code want, Some got -> bad "expected %s, got %s" want got
  | Code want, None -> bad "expected %s, got a result" want
  | (Result _ | Reference), Some got -> bad "unexpected diagnostic %s" got
  | Reference, None -> bad "no reference result"
  | Result want, None when want <> s.digest -> bad "result differs"
  | Result _, None when s.implicit_wakeups > 0 ->
    bad "%d implicit wakeup(s)" s.implicit_wakeups
  | Result _, None -> None

(** Seeded Fisher-Yates order. *)
let shuffle ~seed xs = Lp_util.Rng.shuffle (Lp_util.Rng.create ~seed) xs

(* ------------------------------------------------------------------ *)
(* What a workload hands back to main                                  *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(** The end-to-end metrics that repeat bit for bit for a seed. *)
let deterministic_e2e (ms_ : metric list) =
  List.filter
    (fun x -> List.mem x.name [ "sim_energy_gm_nj"; "sim_time_gm_us"; "code_size_gm_instrs" ])
    ms_

type run_result = {
  attempted : int;
  failed : int;
  failures : string list;        (** first few, for stderr *)
  metrics : metric list;         (** end-to-end, or per-layer when traced *)
  deterministic : metric list;
      (** values that must repeat bit for bit for a given seed *)
  params : (string * Json.t) list;  (** sizes the run was made with *)
}

(** The set-up time metric: median of [n] complete set-ups, each scaled
    to the reference speed; the set-up of the last repetition is kept and
    returned. *)
let timed_setups ~n (setup : unit -> 'a) (teardown : 'a -> unit) : 'a * float =
  let rec go i acc =
    (* every set-up starts from a compacted heap *)
    Gc.compact ();
    let ((s, dt), f) =
      probed (fun () ->
          let t0 = now () in
          let s = setup () in
          (s, now () -. t0))
    in
    let dt = dt *. f in
    if i + 1 >= n then (s, median (dt :: acc))
    else begin
      teardown s;
      go (i + 1) (dt :: acc)
    end
  in
  go 0 []

let setup_repeats = 9

(** Seconds to milliseconds. *)
let ms s = s *. 1e3

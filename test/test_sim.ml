(** Simulator semantics tests: arithmetic, memory spaces, channels,
    barriers, fetch-and-add, power state, failure modes, timing. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Builder = Lp_ir.Builder
module Sim = Lp_sim.Sim
module Value = Lp_sim.Value
module Machine = Lp_machine.Machine
module Component = Lp_power.Component
module CS = Component.Set
module Ledger = Lp_power.Energy_ledger

let check = Alcotest.check
let fail = Alcotest.fail
let machine1 = Machine.generic ~n_cores:1 ()
let machine4 = Machine.generic ~n_cores:4 ()

let lower src =
  let ast = Lp_lang.Parser.parse_program src in
  Lp_lang.Typecheck.check_program ast;
  Lp_ir.Lower.lower_program ast

let run_src ?(machine = machine1) src = Sim.run ~machine (lower src)

let ret_int (o : Sim.outcome) =
  match o.Sim.ret with
  | Some (Value.Vint n) -> n
  | _ -> fail "expected int return"

(* ---------------- value semantics ---------------- *)

let test_arith_c_semantics () =
  check Alcotest.int "div trunc" (-3) (ret_int (run_src "int main() { return -7 / 2; }"));
  check Alcotest.int "mod sign" (-1) (ret_int (run_src "int main() { return -7 % 2; }"));
  check Alcotest.int "shift" 40 (ret_int (run_src "int main() { return 5 << 3; }"));
  check Alcotest.int "asr" (-2) (ret_int (run_src "int main() { return -8 >> 2; }"));
  check Alcotest.int "xor" 6 (ret_int (run_src "int main() { return 5 ^ 3; }"));
  check Alcotest.int "cmp" 1 (ret_int (run_src "int main() { return 3 < 4; }"))

let test_wrap32_overflow () =
  check Alcotest.int "wraps"
    (-2147483648)
    (ret_int (run_src "int main() { return 2147483647 + 1; }"))

let test_short_circuit_semantics () =
  (* the && guard must prevent the division by zero *)
  check Alcotest.int "guarded" 0
    (ret_int (run_src "int main() { int d = 0; if (d != 0 && 10 / d > 1) { return 1; } return 0; }"))

let test_float_ops () =
  check Alcotest.int "float chain" 7
    (ret_int (run_src "int main() { float x = 2.5; float y = x * 3.0; return int(y - 0.5); }"))

let test_recursion () =
  check Alcotest.int "fact 6" 720
    (ret_int (run_src "int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }\nint main() { return fact(6); }"))

let test_globals_init_and_persist () =
  let o = run_src "int g[3] = {10, 20};\nint s = 5;\nint main() { g[2] = g[0] + g[1] + s; return g[2]; }" in
  check Alcotest.int "ret" 35 (ret_int o);
  (match Sim.shared_cell o "g" 2 with
  | Some (Value.Vint 35) -> ()
  | _ -> fail "final memory");
  match Sim.shared_cell o "g" 1 with
  | Some (Value.Vint 20) -> ()
  | _ -> fail "initialiser"

(** The outcome's final memory is every global of the program at its
    declared size, in both steppers, and [shared_array] and
    [shared_cell] hand back each stored word bit for bit: a negative
    int beside its initialisers, and floats computed and stored at run
    time: a negative zero, an inexact sum and a NaN. *)
let test_final_memory () =
  let src =
    "int gi[3] = {4, 5, 6};\nfloat gf[3];\nint s;\nfloat z;\n\
     int main() { float x = 0.1; float y = 0.2; gi[1] = 0 - 2147483647;\n\
     gf[0] = (0.0 - x) * 0.0; gf[1] = x + y; gf[2] = (x - x) / (y - y);\n\
     s = -9; return 0; }"
  in
  let prog = lower src in
  List.iter
    (fun predecode ->
      let o =
        Sim.run ~opts:{ Sim.default_options with Sim.predecode }
          ~machine:machine1 prog
      in
      check Alcotest.int "one final array per global"
        (List.length prog.Prog.globals)
        (Hashtbl.length o.Sim.shared_final);
      List.iter
        (fun (g : Prog.global) ->
          match Sim.shared_array o g.Prog.gsym with
          | Some a -> check Alcotest.int g.Prog.gsym g.Prog.gsize (Array.length a)
          | None -> Alcotest.failf "%s missing from the outcome" g.Prog.gsym)
        prog.Prog.globals;
      let bits = function
        | Some (Value.Vfloat x) -> Printf.sprintf "f%Lx" (Int64.bits_of_float x)
        | Some (Value.Vint n) -> string_of_int n
        | None -> "none"
      in
      let nan = (0.1 -. 0.1) /. (0.2 -. 0.2) in
      List.iter
        (fun (name, i, want) ->
          check Alcotest.string
            (Printf.sprintf "%s[%d], predecode %b" name i predecode)
            (bits (Some want)) (bits (Sim.shared_cell o name i));
          check Alcotest.string
            (Printf.sprintf "%s[%d] of the array" name i)
            (bits (Some want))
            (bits (Option.map (fun a -> a.(i)) (Sim.shared_array o name))))
        [ ("gi", 0, Value.Vint 4); ("gi", 1, Value.Vint (-2147483647));
          ("gi", 2, Value.Vint 6); ("gf", 0, Value.Vfloat (-0.0));
          ("gf", 1, Value.Vfloat (0.1 +. 0.2)); ("gf", 2, Value.Vfloat nan);
          ("s", 0, Value.Vint (-9)); ("z", 0, Value.Vfloat 0.0) ];
      check Alcotest.string "past the end" "none"
        (bits (Sim.shared_cell o "gi" 3));
      check Alcotest.string "no such global" "none"
        (bits (Sim.shared_cell o "nowhere" 0)))
    [ true; false ]

(* ---------------- failure modes ---------------- *)

let test_div_by_zero_traps () =
  try ignore (run_src "int main() { int z = 0; return 5 / z; }"); fail "no trap"
  with Value.Runtime_error _ -> ()

let test_oob_traps () =
  try ignore (run_src "int g[4];\nint main() { return g[9]; }"); fail "no trap"
  with Value.Runtime_error _ -> ()

let test_step_limit () =
  let ast = Lp_lang.Parser.parse_program "int main() { while (1) { } return 0; }" in
  Lp_lang.Typecheck.check_program ast;
  let prog = Lp_ir.Lower.lower_program ast in
  try
    ignore
      (Sim.run ~opts:{ Sim.default_options with Sim.max_steps = 10_000 }
         ~machine:machine1 prog);
    fail "no step limit"
  with Sim.Step_limit_exceeded -> ()

(* ---------------- hand-built parallel programs ---------------- *)

(** Two cores: core0 sends 1..n, core1 sums (with [consumer_work] dummy
    ALU ops per item) and writes the total to a shared cell; core0 reads
    it back after a barrier. *)
let build_pingpong ?(consumer_work = 0) n =
  let prog =
    Prog.create
      ~globals:[ { Prog.gsym = "total"; gty = Ir.I; gsize = 1; ginit = None } ]
  in
  let total = { Ir.sym_name = "total"; sym_space = Ir.Shared } in
  (* producer / master *)
  let m = Prog.create_func ~name:"m" ~params:[] ~ret:(Some Ir.I) in
  let b = Builder.create m in
  List.iter (fun k -> ignore (Builder.emit b (Ir.Send (0, Ir.Imm (Ir.Cint k)))))
    (List.init n (fun i -> i + 1));
  ignore (Builder.emit b (Ir.Barrier 0));
  let r = Builder.load b total (Ir.Imm (Ir.Cint 0)) in
  Builder.set_term b (Ir.Ret (Some (Ir.Reg r)));
  Prog.add_func prog m;
  (* consumer *)
  let w = Prog.create_func ~name:"w" ~params:[] ~ret:(Some Ir.I) in
  let bw = Builder.create w in
  let acc = Prog.new_reg w in
  Builder.move bw acc (Ir.Imm (Ir.Cint 0));
  List.iter
    (fun _ ->
      let d = Prog.new_reg w in
      ignore (Builder.emit bw (Ir.Recv (d, 0, Ir.I)));
      for _ = 1 to consumer_work do
        ignore (Builder.binop bw Ir.Add (Ir.Reg d) (Ir.Imm (Ir.Cint 1)))
      done;
      let s = Builder.binop bw Ir.Add (Ir.Reg acc) (Ir.Reg d) in
      Builder.move bw acc (Ir.Reg s))
    (List.init n Fun.id);
  Builder.store bw total (Ir.Imm (Ir.Cint 0)) (Ir.Reg acc);
  ignore (Builder.emit bw (Ir.Barrier 0));
  Builder.set_term bw (Ir.Ret (Some (Ir.Imm (Ir.Cint 0))));
  Prog.add_func prog w;
  prog.Prog.layout <-
    Prog.Parallel
      { entries = [ "m"; "w" ]; n_channels = 1; n_barriers = 1; chan_capacity = 2 };
  prog

let test_channels_and_barrier () =
  let n = 20 in
  let prog = build_pingpong n in
  Lp_ir.Verify.verify_prog prog;
  let o = Sim.run ~machine:machine4 prog in
  check Alcotest.int "sum over channel" (n * (n + 1) / 2) (ret_int o);
  check Alcotest.int "messages" n o.Sim.channel_msgs

let test_channel_backpressure () =
  (* capacity 2, fast producer, slow consumer: the producer must hit the
     full queue and block *)
  let prog = build_pingpong ~consumer_work:100 20 in
  let o = Sim.run ~machine:machine4 prog in
  if o.Sim.send_blocks.(0) = 0 then fail "producer never blocked"

let test_deadlock_detection () =
  let prog = Prog.create ~globals:[] in
  let m = Prog.create_func ~name:"m" ~params:[] ~ret:(Some Ir.I) in
  let b = Builder.create m in
  let d = Prog.new_reg m in
  ignore (Builder.emit b (Ir.Recv (d, 0, Ir.I)));
  Builder.set_term b (Ir.Ret (Some (Ir.Reg d)));
  Prog.add_func prog m;
  let w = Prog.create_func ~name:"w" ~params:[] ~ret:(Some Ir.I) in
  let bw = Builder.create w in
  let dw = Prog.new_reg w in
  ignore (Builder.emit bw (Ir.Recv (dw, 1, Ir.I)));
  Builder.set_term bw (Ir.Ret (Some (Ir.Reg dw)));
  Prog.add_func prog w;
  prog.Prog.layout <-
    Prog.Parallel
      { entries = [ "m"; "w" ]; n_channels = 2; n_barriers = 0; chan_capacity = 1 };
  try
    ignore (Sim.run ~machine:machine4 prog);
    fail "deadlock not detected"
  with Sim.Deadlock _ -> ()

let test_channel_type_mismatch () =
  let prog = Prog.create ~globals:[] in
  let m = Prog.create_func ~name:"m" ~params:[] ~ret:(Some Ir.I) in
  let b = Builder.create m in
  ignore (Builder.emit b (Ir.Send (0, Ir.Imm (Ir.Cfloat 1.5))));
  Builder.set_term b (Ir.Ret (Some (Ir.Imm (Ir.Cint 0))));
  Prog.add_func prog m;
  let w = Prog.create_func ~name:"w" ~params:[] ~ret:(Some Ir.I) in
  let bw = Builder.create w in
  let dw = Prog.new_reg w in
  ignore (Builder.emit bw (Ir.Recv (dw, 0, Ir.I)));
  Builder.set_term bw (Ir.Ret (Some (Ir.Imm (Ir.Cint 0))));
  Prog.add_func prog w;
  prog.Prog.layout <-
    Prog.Parallel
      { entries = [ "m"; "w" ]; n_channels = 1; n_barriers = 0; chan_capacity = 1 };
  (* a fault of the IR: the verifier rejects it at construction, in both
     steppers *)
  List.iter
    (fun predecode ->
      let opts = { Sim.default_options with Sim.predecode } in
      try
        ignore (Sim.create ~opts ~machine:machine4 prog);
        fail "type mismatch not detected"
      with Lp_ir.Verify.Invalid _ -> ())
    [ true; false ]

let test_faa_atomicity () =
  (* three cores each fetch-add 100 times; the counter ends exactly at 300
     and every core saw distinct values (modelled by exact final count) *)
  let prog =
    Prog.create
      ~globals:[ { Prog.gsym = "ctr"; gty = Ir.I; gsize = 1; ginit = None } ]
  in
  let ctr = { Ir.sym_name = "ctr"; sym_space = Ir.Shared } in
  let mk_worker name =
    let f = Prog.create_func ~name ~params:[] ~ret:(Some Ir.I) in
    let b = Builder.create f in
    List.iter
      (fun _ ->
        let d = Prog.new_reg f in
        ignore (Builder.emit b (Ir.Faa (d, ctr, Ir.Imm (Ir.Cint 1)))))
      (List.init 100 Fun.id);
    ignore (Builder.emit b (Ir.Barrier 0));
    let r = Builder.load b ctr (Ir.Imm (Ir.Cint 0)) in
    Builder.set_term b (Ir.Ret (Some (Ir.Reg r)));
    Prog.add_func prog f;
    name
  in
  let entries = List.map mk_worker [ "c0"; "c1"; "c2" ] in
  prog.Prog.layout <-
    Prog.Parallel { entries; n_channels = 0; n_barriers = 1; chan_capacity = 0 };
  let o = Sim.run ~machine:machine4 prog in
  check Alcotest.int "counter" 300 (ret_int o)

(* ---------------- power state ---------------- *)

let build_single instrs ~ret_op =
  let prog = Prog.create ~globals:[] in
  let f = Prog.create_func ~name:"main" ~params:[] ~ret:(Some Ir.I) in
  let b = Builder.create f in
  List.iter (fun mk -> ignore (Builder.emit b (mk f))) instrs;
  Builder.set_term b (Ir.Ret (Some ret_op));
  Prog.add_func prog f;
  prog

let test_implicit_wakeup_counted () =
  (* gate the multiplier, then multiply: the simulator must wake it and
     count the violation *)
  let prog =
    build_single
      [
        (fun _ -> Ir.Pg_off (CS.singleton Component.Multiplier));
        (fun f -> Ir.Binop (Ir.Mul, Prog.new_reg f, Ir.Imm (Ir.Cint 6), Ir.Imm (Ir.Cint 7)));
      ]
      ~ret_op:(Ir.Imm (Ir.Cint 0))
  in
  let o = Sim.run ~machine:machine1 prog in
  check Alcotest.int "one implicit wakeup" 1 o.Sim.implicit_wakeups

let test_gating_saves_leakage () =
  (* identical long busy loops; one gates the idle wide units first *)
  let loop_src gate =
    Printf.sprintf
      "int main() { int s = 0; for (int i = 0; i < 5000; i = i + 1) { s = s + i; } return s %s; }"
      (if gate then "" else "")
  in
  ignore loop_src;
  let mk gate =
    let ast = Lp_lang.Parser.parse_program
        "int main() { int s = 0; for (int i = 0; i < 5000; i = i + 1) { s = s + i; } return s; }" in
    Lp_lang.Typecheck.check_program ast;
    let prog = Lp_ir.Lower.lower_program ast in
    if gate then begin
      let f = Prog.func_exn prog "main" in
      let entry = Prog.block f f.Prog.entry in
      entry.Ir.instrs <-
        Prog.new_instr f (Ir.Pg_off CS.all_gateable) :: entry.Ir.instrs
    end;
    Sim.run ~machine:machine1 prog
  in
  let plain = mk false and gated = mk true in
  check Alcotest.int "same result" (ret_int plain) (ret_int gated);
  let e_plain = Ledger.total plain.Sim.energy in
  let e_gated = Ledger.total gated.Sim.energy in
  if e_gated >= e_plain then fail "gating saved nothing";
  if Ledger.of_category gated.Sim.energy Ledger.Gating_overhead <= 0.0 then
    fail "no gating overhead charged"

let test_dvfs_slows_and_saves_dynamic_power () =
  let mk level_opt =
    let ast = Lp_lang.Parser.parse_program
        "int main() { int s = 1; for (int i = 0; i < 3000; i = i + 1) { s = s + i * 3; } return s; }" in
    Lp_lang.Typecheck.check_program ast;
    let prog = Lp_ir.Lower.lower_program ast in
    (match level_opt with
    | Some lvl ->
      let f = Prog.func_exn prog "main" in
      let entry = Prog.block f f.Prog.entry in
      entry.Ir.instrs <- Prog.new_instr f (Ir.Dvfs lvl) :: entry.Ir.instrs
    | None -> ());
    Sim.run ~machine:machine1 prog
  in
  let fast = mk None and slow = mk (Some 0) in
  check Alcotest.int "same result" (ret_int fast) (ret_int slow);
  if slow.Sim.duration_ns <= fast.Sim.duration_ns then fail "dvfs did not slow";
  let dyn o = Ledger.of_category o.Sim.energy Ledger.Dynamic in
  if dyn slow >= dyn fast then fail "dvfs did not reduce dynamic energy";
  check Alcotest.int "transition counted" 1 slow.Sim.dvfs_transitions

let test_rom_faster_than_shared () =
  let mk space =
    let ast = Lp_lang.Parser.parse_program
        "int t[256] = {1,2,3};\nint main() { int s = 0; for (int i = 0; i < 256; i = i + 1) { s = s + t[i]; } return s; }" in
    Lp_lang.Typecheck.check_program ast;
    let prog = Lp_ir.Lower.lower_program ast in
    if space = `Rom then ignore (Lp_transforms.Const_promote.run prog);
    Sim.run ~machine:machine1 prog
  in
  let shared = mk `Shared and rom = mk `Rom in
  check Alcotest.int "same result" (ret_int shared) (ret_int rom);
  if rom.Sim.duration_ns >= shared.Sim.duration_ns then
    fail "ROM access not faster than shared memory"

let test_bus_contention () =
  (* two cores hammering shared memory finish later than one core doing
     half the work alone would suggest: the bus serialises *)
  let mk_store_worker prog name =
    let f = Prog.create_func ~name ~params:[] ~ret:(Some Ir.I) in
    let b = Builder.create f in
    let body = Prog.new_block f in
    let exit_b = Prog.new_block f in
    let i = Prog.new_reg f in
    Builder.move b i (Ir.Imm (Ir.Cint 0));
    Builder.set_term b (Ir.Jmp body.Ir.bid);
    Builder.switch_to b body;
    Builder.store b { Ir.sym_name = "buf"; sym_space = Ir.Shared } (Ir.Reg i)
      (Ir.Reg i);
    Builder.store b { Ir.sym_name = "buf"; sym_space = Ir.Shared } (Ir.Reg i)
      (Ir.Reg i);
    let i2 = Builder.binop b Ir.Add (Ir.Reg i) (Ir.Imm (Ir.Cint 1)) in
    Builder.move b i (Ir.Reg i2);
    let c = Builder.binop b Ir.Lt (Ir.Reg i) (Ir.Imm (Ir.Cint 400)) in
    Builder.set_term b (Ir.Br (Ir.Reg c, body.Ir.bid, exit_b.Ir.bid));
    Builder.switch_to b exit_b;
    Builder.set_term b (Ir.Ret (Some (Ir.Imm (Ir.Cint 0))));
    Prog.add_func prog f;
    name
  in
  let mk n_workers =
    let prog =
      Prog.create
        ~globals:[ { Prog.gsym = "buf"; gty = Ir.I; gsize = 512; ginit = None } ]
    in
    let entries =
      List.init n_workers (fun k -> mk_store_worker prog (Printf.sprintf "c%d" k))
    in
    prog.Prog.layout <-
      Prog.Parallel { entries; n_channels = 0; n_barriers = 0; chan_capacity = 0 };
    Sim.run ~machine:machine4 prog
  in
  let one = mk 1 and four = mk 4 in
  (* same per-core work; four cores demand more bus bandwidth than exists,
     so the run must take measurably longer than a single core's *)
  if four.Sim.duration_ns <= one.Sim.duration_ns *. 1.15 then
    fail "no bus contention visible"

let test_unused_core_leakage_modeled () =
  let src = "int main() { int s = 0; for (int i = 0; i < 2000; i = i + 1) { s = s + i; } return s; }" in
  let parse () =
    let ast = Lp_lang.Parser.parse_program src in
    Lp_lang.Typecheck.check_program ast;
    Lp_ir.Lower.lower_program ast
  in
  let plain = Sim.run ~machine:machine4 (parse ()) in
  let gated =
    Sim.run
      ~opts:{ Sim.default_options with Sim.gate_unused_cores = true }
      ~machine:machine4 (parse ())
  in
  let idle o = Ledger.of_category o.Sim.energy Ledger.Leakage_idle in
  if idle plain <= 0.0 then fail "unused cores leak nothing";
  if idle gated >= idle plain then fail "gating unused cores had no effect"

(* ---------------- event trace ---------------- *)

let test_trace_records_events () =
  let prog =
    build_single
      [
        (fun _ -> Ir.Pg_off (CS.singleton Component.Fpu));
        (fun f -> Ir.Binop (Ir.Add, Prog.new_reg f, Ir.Imm (Ir.Cint 1), Ir.Imm (Ir.Cint 2)));
        (fun _ -> Ir.Pg_on (CS.singleton Component.Fpu));
        (fun _ -> Ir.Dvfs 0);
      ]
      ~ret_op:(Ir.Imm (Ir.Cint 0))
  in
  let o =
    Sim.run ~opts:{ Sim.default_options with Sim.trace_limit = 16 }
      ~machine:machine1 prog
  in
  let whats = List.map (fun e -> e.Sim.ev_what) o.Sim.events in
  let has frag =
    List.exists
      (fun w ->
        let n = String.length frag and h = String.length w in
        let rec go i = i + n <= h && (String.sub w i n = frag || go (i + 1)) in
        go 0)
      whats
  in
  if not (has "pg_off") then fail "no pg_off event";
  if not (has "pg_on") then fail "no pg_on event";
  if not (has "dvfs") then fail "no dvfs event";
  if not (has "halt") then fail "no halt event";
  (* timestamps are non-decreasing per core *)
  ignore
    (List.fold_left
       (fun prev e ->
         if e.Sim.ev_ns +. 1e-9 < prev then fail "trace out of order";
         e.Sim.ev_ns)
       0.0 o.Sim.events)

let test_trace_off_by_default () =
  let prog =
    build_single
      [ (fun _ -> Ir.Pg_off (CS.singleton Component.Fpu)) ]
      ~ret_op:(Ir.Imm (Ir.Cint 0))
  in
  let o = Sim.run ~machine:machine1 prog in
  check Alcotest.int "no events" 0 (List.length o.Sim.events)

let test_trace_limit_respected () =
  let prog =
    build_single
      (List.concat_map
         (fun _ ->
           [ (fun _ -> Ir.Pg_off (CS.singleton Component.Fpu));
             (fun _ -> Ir.Pg_on (CS.singleton Component.Fpu)) ])
         (List.init 20 Fun.id))
      ~ret_op:(Ir.Imm (Ir.Cint 0))
  in
  let o =
    Sim.run ~opts:{ Sim.default_options with Sim.trace_limit = 5 }
      ~machine:machine1 prog
  in
  check Alcotest.int "bounded" 5 (List.length o.Sim.events)

(* ---------------- decode cache ---------------- *)

(** The simulator caches a program's decode between runs; a program
    optimised in place must not run its old code.  The classic passes
    fold this body to [return 10], so the second run executes no
    instructions at all. *)
let test_decode_cache_sees_in_place_changes () =
  let prog =
    lower
      "int main() { int x = 5; int a = x * 1; int b = x + 0; int c = x * 0; \
       return a + b + c; }"
  in
  let before = Sim.run ~machine:machine1 prog in
  check Alcotest.int "unoptimised instructions" 9 before.Sim.instr_total;
  let module T = Lp_transforms in
  T.Pass.run_to_fixpoint (T.Pass.create_manager ())
    [ T.Simplify_cfg.pass; T.Constfold.pass; T.Dce.pass ]
    prog;
  let after = Sim.run ~machine:machine1 prog in
  check Alcotest.int "optimised instructions" 0 after.Sim.instr_total;
  check Alcotest.int "same result" (ret_int before) (ret_int after)

(* A register written with an int and then a float cannot live in one
   register class: hand-built IR that never went through [Verify] must
   still come back as a structured diagnostic from both steppers, never
   as a value. *)
let test_class_conflict_is_diagnosed () =
  let prog = Prog.create ~globals:[] in
  let f = Prog.create_func ~name:"main" ~params:[] ~ret:(Some Ir.F) in
  let b = Builder.create f in
  let r = Prog.new_reg f in
  ignore (Builder.emit b (Ir.Const (r, Ir.Cint 1)));
  ignore (Builder.emit b (Ir.Const (r, Ir.Cfloat 1.5)));
  Builder.set_term b (Ir.Ret (Some (Ir.Reg r)));
  Prog.add_func prog f;
  List.iter
    (fun predecode ->
      let opts = { Sim.default_options with Sim.predecode } in
      match
        Lowpower.Compile.guard (fun () -> Ok (Sim.run ~opts ~machine:machine1 prog))
      with
      | Error { Lp_util.Diag.code = "E_VERIFY" | "E_RUNTIME"; _ } -> ()
      | Error d ->
        Alcotest.failf "predecode %b: unexpected %s" predecode
          (Lp_util.Diag.to_string d)
      | Ok o ->
        Alcotest.failf "predecode %b: returned %s" predecode
          (match o.Sim.ret with Some v -> Value.to_string v | None -> "nothing"))
    [ true; false ]

(* [Verify.verify_prog] is the one gate for faults of the IR, and
   [Sim.create] runs it only on a program whose record ([Prog.verified])
   is stale: after [Compile] the record is current for every workload
   and config, and a touch, a layout reassignment or a copy with other
   globals makes [Sim.create] verify the program again. *)
let test_verified_once () =
  let module C = Lowpower.Compile in
  let module W = Lp_workloads.Workload in
  let current p = Prog.verified p ~version:(Prog.prog_version p) in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (config, opts) ->
          let c = C.compile ~opts ~machine:machine4 w.W.source in
          if not (current c.C.prog) then
            Alcotest.failf "%s/%s: stale after compile" w.W.name config)
        (C.configs ~n_cores:4))
    Lp_workloads.Suite.all;
  let prodcons = (Lp_workloads.Suite.find_exn "prodcons").W.source in
  let prog =
    (C.compile ~opts:(C.full ~n_cores:4) ~machine:machine4 prodcons).C.prog
  in
  Prog.touch (List.hd (Prog.funcs prog));
  check Alcotest.bool "stale after a touch" false (current prog);
  ignore (Sim.create ~machine:machine4 prog);
  check Alcotest.bool "verified again" true (current prog);
  (* a copy keeps the record, but not for globals it never checked *)
  (match Sim.create ~machine:machine4 { prog with Prog.globals = [] } with
  | _ -> fail "ran a program whose arrays are gone"
  | exception Lp_ir.Verify.Invalid _ -> ());
  (* a layout with no channel for the program's sends and receives *)
  (match prog.Prog.layout with
  | Prog.Parallel r ->
    prog.Prog.layout <- Prog.Parallel { r with n_channels = 0 }
  | Prog.Sequential -> fail "prodcons under full is sequential");
  check Alcotest.bool "stale after a new layout" false (current prog);
  match Sim.create ~machine:machine4 prog with
  | _ -> fail "ran a program whose channels the layout lacks"
  | exception Lp_ir.Verify.Invalid _ -> ()

let suite =
  [
    Alcotest.test_case "C arithmetic semantics" `Quick test_arith_c_semantics;
    Alcotest.test_case "32-bit wrap" `Quick test_wrap32_overflow;
    Alcotest.test_case "short-circuit" `Quick test_short_circuit_semantics;
    Alcotest.test_case "float ops" `Quick test_float_ops;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "globals init/persist" `Quick test_globals_init_and_persist;
    Alcotest.test_case "final memory: every global, every word" `Quick
      test_final_memory;
    Alcotest.test_case "div-by-zero traps" `Quick test_div_by_zero_traps;
    Alcotest.test_case "out-of-bounds traps" `Quick test_oob_traps;
    Alcotest.test_case "step limit" `Quick test_step_limit;
    Alcotest.test_case "channels + barrier" `Quick test_channels_and_barrier;
    Alcotest.test_case "channel backpressure" `Quick test_channel_backpressure;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "channel type mismatch" `Quick test_channel_type_mismatch;
    Alcotest.test_case "faa atomicity" `Quick test_faa_atomicity;
    Alcotest.test_case "implicit wakeup counted" `Quick test_implicit_wakeup_counted;
    Alcotest.test_case "gating saves leakage" `Quick test_gating_saves_leakage;
    Alcotest.test_case "dvfs slows + saves" `Quick test_dvfs_slows_and_saves_dynamic_power;
    Alcotest.test_case "rom faster than shared" `Quick test_rom_faster_than_shared;
    Alcotest.test_case "bus contention" `Quick test_bus_contention;
    Alcotest.test_case "unused core leakage" `Quick test_unused_core_leakage_modeled;
    Alcotest.test_case "trace records events" `Quick test_trace_records_events;
    Alcotest.test_case "trace off by default" `Quick test_trace_off_by_default;
    Alcotest.test_case "trace limit" `Quick test_trace_limit_respected;
    Alcotest.test_case "decode cache sees in-place changes" `Quick
      test_decode_cache_sees_in_place_changes;
    Alcotest.test_case "register class conflict is diagnosed" `Quick
      test_class_conflict_is_diagnosed;
    Alcotest.test_case "verified once per program version" `Quick
      test_verified_once;
  ]

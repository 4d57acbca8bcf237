(** Compiler-directed DVFS insertion.

    Memory-bound loops spend most of their time on the (fixed-frequency)
    bus and shared memory, so scaling the core down stretches only the
    compute fraction.  For each top-level loop the pass estimates the
    memory-bound fraction [mu] and picks the lowest operating point whose
    slowdown [(1 - mu) * fnom/f + mu] stays within the allowed bound, then
    brackets the loop with [dvfs] instructions (down in the preheader,
    back to nominal on the exit landings).

    Loops that perform channel operations (directly or through calls) are
    skipped: their timing couples with other cores and is instead handled
    by the pattern-aware balancing pass. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Power_model = Lp_power.Power_model
module Operating_point = Lp_power.Operating_point
module Machine = Lp_machine.Machine
module Loops = Lp_analysis.Loops
module Est = Lp_analysis.Est
module Manager = Lp_analysis.Manager
module Report = Lp_obs.Report

type options = {
  max_slowdown : float;   (** e.g. 0.05 = at most 5% slower *)
}

let default_options = { max_slowdown = 0.10 }

(** Loops below this memory-bound fraction are left at nominal. *)
let min_mem_fraction = 0.20

(** Amortisation threshold for the transition, in estimated cycles. *)
let min_cycles = 2000.0

(* communication closure: does a function (transitively) use channel or
   barrier intrinsics? *)
let comm_closure (prog : Prog.t) : (string, bool) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace tbl f.Prog.fname false) (Prog.funcs prog);
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        let has =
          Prog.fold_instrs f
            (fun acc _ i ->
              acc
              ||
              match i.Ir.idesc with
              | Ir.Send _ | Ir.Recv _ | Ir.Barrier _ | Ir.Faa _ -> true
              | Ir.Call (_, callee, _) ->
                Option.value ~default:true (Hashtbl.find_opt tbl callee)
              | _ -> false)
            false
        in
        if Hashtbl.find tbl f.Prog.fname <> has then begin
          Hashtbl.replace tbl f.Prog.fname has;
          changed := true
        end)
      (Prog.funcs prog)
  done;
  tbl

let loop_has_comm (comm : (string, bool) Hashtbl.t) (f : Prog.func)
    (l : Loops.loop) : bool =
  Loops.LS.exists
    (fun bid ->
      let b = Prog.block f bid in
      List.exists
        (fun (i : Ir.instr) ->
          match i.Ir.idesc with
          | Ir.Send _ | Ir.Recv _ | Ir.Barrier _ | Ir.Faa _ -> true
          | Ir.Call (_, callee, _) ->
            Option.value ~default:true (Hashtbl.find_opt comm callee)
          | _ -> false)
        b.Ir.instrs)
    l.Loops.blocks

(** Lowest operating level whose slowdown on a loop with memory fraction
    [mu] stays within [max_slowdown] ([None] if only nominal qualifies),
    plus every rejected non-nominal point with the reason — the audit
    report records why each operating point lost. *)
let choose_level_explained (pm : Power_model.t) ~mu ~max_slowdown :
    int option * (string * string) list =
  let nominal = Power_model.nominal pm in
  let chosen = ref None in
  let rejected = ref [] in
  List.iter
    (fun (p : Operating_point.t) ->
      if p.Operating_point.level <> nominal.Operating_point.level then
        let s = Operating_point.slowdown ~nominal ~mu p in
        if s > 1.0 +. max_slowdown then
          rejected :=
            ( Printf.sprintf "L%d@%.0fMHz" p.Operating_point.level
                p.Operating_point.freq_mhz,
              Printf.sprintf "slowdown %.3f > %.3f" s (1.0 +. max_slowdown) )
            :: !rejected
        else if !chosen = None then
          (* points are ascending: the first point within bound wins *)
          chosen := Some p.Operating_point.level
        else
          rejected :=
            ( Printf.sprintf "L%d@%.0fMHz" p.Operating_point.level
                p.Operating_point.freq_mhz,
              "higher point than the chosen level" )
            :: !rejected)
    (Power_model.points pm);
  (!chosen, List.rev !rejected)

let choose_level (pm : Power_model.t) ~mu ~max_slowdown : int option =
  fst (choose_level_explained pm ~mu ~max_slowdown)

(** Pick the ladder for a function from the classes of the cores that
    can execute it.  [None] means the classes disagree (incompatible
    ladders): a raw [dvfs level] would mean different V/f pairs on
    different cores, so the pass must skip the region. *)
let ladder_of_classes (m : Machine.t) (classes : int list) :
    (string * Power_model.t) option =
  let cc k = m.Machine.classes.(k) in
  match classes with
  | [] ->
    (* unreachable function: class 0's ladder, today's behaviour *)
    Some (m.Machine.classes.(0).Machine.cc_name, Machine.ref_power m)
  | k :: rest ->
    let pm0 = (cc k).Machine.cc_power in
    if List.for_all
         (fun k' -> Power_model.same_ladder pm0 (cc k').Machine.cc_power)
         rest
    then
      Some
        (String.concat "+" (List.map (fun k' -> (cc k').Machine.cc_name) classes),
         pm0)
    else None

let run_func am ?(opts = default_options) ?(report = Report.disabled)
    ?(classes = []) (m : Machine.t) (comm : (string, bool) Hashtbl.t)
    (f : Prog.func) : int =
  let ladder = ladder_of_classes m classes in
  let (cls_name, pm) =
    match ladder with
    | Some (name, pm) -> (name, pm)
    | None ->
      (* only used for the audit record of the skip *)
      (String.concat "+"
         (List.map
            (fun k -> m.Machine.classes.(k).Machine.cc_name)
            classes),
       Machine.ref_power m)
  in
  let changes = ref 0 in
  let loops = Loops.top_level (Manager.loops am f) in
  let emit ~l ~mu ~est_cycles ~chosen ~rejected ~reason =
    if Report.enabled report then
      Report.add report
        (Report.Dvfs_decision
           {
             dv_func = f.Prog.fname;
             dv_site = Printf.sprintf "loop@b%d" l.Loops.header;
             dv_core_class = cls_name;
             dv_ladder =
               (match ladder with
               | Some (_, pm) -> Power_model.describe_ladder pm
               | None -> "(incompatible)");
             dv_mu = mu;
             dv_est_cycles = est_cycles;
             dv_chosen = chosen;
             dv_rejected = rejected;
             dv_reason = reason;
           })
  in
  List.iter
    (fun l ->
      if Option.is_none ladder then
        emit ~l ~mu:0.0 ~est_cycles:0.0 ~chosen:None ~rejected:[]
          ~reason:
            (Some
               "function runs on core classes with incompatible DVFS \
                ladders")
      else if loop_has_comm comm f l then
        emit ~l ~mu:0.0 ~est_cycles:0.0 ~chosen:None ~rejected:[]
          ~reason:
            (Some "communicating loop: timing coupled with other cores")
      else begin
        let est = Manager.loop_est am m f l in
        let mu = est.Est.mem_fraction in
        let est_cycles = est.Est.total_cycles in
        if est_cycles < min_cycles then
          emit ~l ~mu ~est_cycles ~chosen:None ~rejected:[]
            ~reason:
              (Some
                 (Printf.sprintf
                    "est %.0f cycles below the %.0f-cycle amortisation \
                     threshold"
                    est_cycles min_cycles))
        else if mu < min_mem_fraction then
          emit ~l ~mu ~est_cycles ~chosen:None ~rejected:[]
            ~reason:
              (Some
                 (Printf.sprintf "mu %.2f below minimum %.2f" mu
                    min_mem_fraction))
        else begin
          let chosen, rejected =
            choose_level_explained pm ~mu ~max_slowdown:opts.max_slowdown
          in
          match chosen with
          | None ->
            emit ~l ~mu ~est_cycles ~chosen:None ~rejected
              ~reason:(Some "no operating point within the slowdown bound")
          | Some level -> (
            match Region.preheader am f l with
            | None ->
              emit ~l ~mu ~est_cycles ~chosen:None ~rejected
                ~reason:(Some "no preheader to host the transition")
            | Some pre ->
              let loc = Region.loop_loc f l in
              Region.append ~loc f pre (Ir.Dvfs level);
              List.iter
                (fun landing ->
                  Region.prepend ~loc f landing
                    (Ir.Dvfs (Power_model.max_level pm)))
                (Region.exit_landings f l);
              incr changes;
              emit ~l ~mu ~est_cycles ~chosen:(Some level) ~rejected
                ~reason:None)
        end
      end)
    loops;
  !changes

let insert ?(opts = default_options) ?(report = Report.disabled) ~am
    (m : Machine.t) (prog : Prog.t) : int =
  let comm = comm_closure prog in
  let fclasses = Gating.func_classes prog m in
  List.fold_left
    (fun acc f ->
      let classes =
        Option.value ~default:[] (Hashtbl.find_opt fclasses f.Prog.fname)
      in
      acc + run_func am ~opts ~report ~classes m comm f)
    0 (Prog.funcs prog)

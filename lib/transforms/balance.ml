(** Pattern-aware pipeline balancing.

    A pipeline's throughput is set by its slowest stage, so every faster
    stage has slack exactly equal to the bottleneck's service time minus
    its own.  This pass converts that slack into energy: each worker stage
    is scaled down to the lowest operating point at which it still matches
    the bottleneck's service rate.  (The master stage is left at nominal:
    it also executes the program's sequential sections.)

    Outlined bodies of non-pipeline patterns get an explicit [dvfs] to
    nominal at entry, so a core that previously served a slow pipeline
    stage is restored before doing bandwidth-critical doall work. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Power_model = Lp_power.Power_model
module Operating_point = Lp_power.Operating_point
module Machine = Lp_machine.Machine
module Est = Lp_analysis.Est
module Manager = Lp_analysis.Manager
module Pattern = Lp_patterns.Pattern

(** Over-provision factor on a stage's stretched time. *)
let headroom = 1.10

(** Per-iteration nominal-time estimate (ns) of one stage function. *)
let stage_time am (m : Machine.t) (prog : Prog.t) name : Est.func_est option =
  Option.map (Manager.func_est am m) (Prog.find_func prog name)

let prepend_dvfs (prog : Prog.t) name level : bool =
  match Prog.find_func prog name with
  | None -> false
  | Some f ->
    let b = Prog.block f f.Prog.entry in
    (* avoid duplicating if the pass runs twice *)
    let already =
      match b.Ir.instrs with
      | { Ir.idesc = Ir.Dvfs _; _ } :: _ -> true
      | _ -> false
    in
    if already then false
    else begin
      Region.prepend f b (Ir.Dvfs level);
      true
    end

(** Pick the lowest level at which a stage with nominal estimate [est]
    still completes within [budget_cycles] (both in nominal cycles). *)
let choose_level (pm : Power_model.t) (est : Est.func_est) ~budget_cycles :
    int =
  let nominal = Power_model.nominal pm in
  let mu = est.Est.mem_fraction in
  let fits (p : Operating_point.t) =
    let stretched =
      est.Est.total_cycles *. Operating_point.slowdown ~nominal ~mu p
    in
    stretched *. headroom <= budget_cycles
  in
  match List.find_opt fits (Power_model.points pm) with
  | Some p -> p.Operating_point.level
  | None -> nominal.Operating_point.level

let run ~am (m : Machine.t) (prog : Prog.t) (info : Par_info.t) : int =
  let entries = Prog.entries prog in
  (* power model of the core a stage entry function runs on: entry [i]
     executes on core [i] (the simulator's layout) *)
  let pm_of_entry name =
    let rec idx i = function
      | [] -> None
      | e :: _ when String.equal e name -> Some i
      | _ :: rest -> idx (i + 1) rest
    in
    match idx 0 entries with
    | Some i when i < Machine.n_cores m -> Machine.power_of_core m i
    | _ -> Machine.ref_power m
  in
  let fclasses = lazy (Gating.func_classes prog m) in
  let changes = ref 0 in
  List.iter
    (fun (cg : Par_info.instance_codegen) ->
      match cg.Par_info.inst.Pattern.kind with
      | Pattern.Pipeline _ | Pattern.Prodcons -> (
        let ests =
          List.filter_map (stage_time am m prog) cg.Par_info.stage_funcs
        in
        if List.length ests = List.length cg.Par_info.stage_funcs then begin
          let bottleneck =
            List.fold_left
              (fun acc (e : Est.func_est) -> Float.max acc e.Est.total_cycles)
              1.0 ests
          in
          List.iteri
            (fun s name ->
              if s > 0 then begin
                let est = List.nth ests s in
                let pm = pm_of_entry name in
                let level = choose_level pm est ~budget_cycles:bottleneck in
                if level <> Power_model.max_level pm then
                  if prepend_dvfs prog name level then incr changes
              end)
            cg.Par_info.stage_funcs
        end)
      | Pattern.Doall | Pattern.Reduction _ | Pattern.Farm -> (
        (* restore nominal at entry of the outlined body — only when
           every class that can execute the body shares one ladder (a
           raw level is meaningless across incompatible ladders) *)
        match cg.Par_info.body_func with
        | Some name -> (
          let classes =
            Option.value ~default:[]
              (Hashtbl.find_opt (Lazy.force fclasses) name)
          in
          match Dvfs.ladder_of_classes m classes with
          | Some (_, pm) ->
            if prepend_dvfs prog name (Power_model.max_level pm) then
              incr changes
          | None -> ())
        | None -> ()))
    info.Par_info.instances;
  !changes

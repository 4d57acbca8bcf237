(** Compiler-directed power gating with Sink-N-Hoist merging.

    Insertion works at two granularities:

    - {b loop gating}: for each natural loop whose estimated duration
      exceeds the break-even threshold of a component the loop provably
      never uses (component-activity analysis, call-closed), bracket the
      loop with [pg_off] in the preheader and [pg_on] on the exit
      landings.  Only components the containing function uses elsewhere
      are re-enabled — others are left to entry gating.
    - {b entry gating}: at each core's entry function, components never
      used by the whole closure of that entry are switched off once for
      the entire run.

    The {b Sink-N-Hoist} merge then (after CFG simplification has fused
    exit landings with following preheaders) rewrites gating sequences
    locally: adjacent same-polarity gating instructions are merged into
    one multi-component instruction, [pg_on; ...; pg_off] pairs with no
    intervening use are cancelled (the component simply stays off across
    both regions), and [pg_off; ...; pg_on] pairs whose separation is
    below break-even are dropped (the region is too short to pay for the
    transitions). *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Component = Lp_power.Component
module CS = Component.Set
module Power_model = Lp_power.Power_model
module Machine = Lp_machine.Machine
module Loops = Lp_analysis.Loops
module Compuse = Lp_analysis.Compuse
module Est = Lp_analysis.Est
module Manager = Lp_analysis.Manager
module Report = Lp_obs.Report

let comp_names cs = List.map Component.to_string (CS.elements cs)

type options = {
  break_even_scale : float;
      (** multiply the model's break-even threshold; the F4 sensitivity
          experiment sweeps this *)
}

let default_options = { break_even_scale = 1.0 }

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)
(* ------------------------------------------------------------------ *)

(** Break-even threshold of [comp] under one class's power model. *)
let break_even_cycles_pm (pm : Power_model.t) comp =
  Power_model.break_even_cycles pm ~comp ~point:(Power_model.nominal pm)

(** Worst-case (largest) break-even across the machine's core classes:
    gating is only inserted when it pays off on whichever class runs the
    code.  On homogeneous machines this is the single class's value. *)
let break_even_cycles (m : Machine.t) comp =
  Array.fold_left
    (fun acc (cc : Machine.core_class) ->
      max acc (break_even_cycles_pm cc.Machine.cc_power comp))
    0 m.Machine.classes

(** Class indices whose cores can execute each function: entry [i] runs
    on core [i] (the simulator's layout), callees inherit every caller's
    classes over the call graph. *)
let func_classes (prog : Prog.t) (m : Machine.t) : (string, int list) Hashtbl.t =
  let table = Hashtbl.create 16 in
  List.iteri
    (fun i entry ->
      let cls = Machine.class_index_of_core m i in
      let visited = Hashtbl.create 16 in
      let rec visit name =
        if not (Hashtbl.mem visited name) then begin
          Hashtbl.replace visited name ();
          let cur = Option.value ~default:[] (Hashtbl.find_opt table name) in
          if not (List.mem cls cur) then
            Hashtbl.replace table name (cur @ [ cls ]);
          match Prog.find_func prog name with
          | None -> ()
          | Some f ->
            Prog.iter_instrs f (fun _ i ->
                match i.Ir.idesc with
                | Ir.Call (_, callee, _) -> visit callee
                | _ -> ())
        end
      in
      visit entry)
    (Prog.entries prog);
  table

(** Largest break-even among [classes] (falling back to the machine-wide
    worst case when the executing classes are unknown). *)
let break_even_for (m : Machine.t) (classes : int list) comp =
  match classes with
  | [] -> break_even_cycles m comp
  | l ->
    List.fold_left
      (fun acc k ->
        max acc
          (break_even_cycles_pm m.Machine.classes.(k).Machine.cc_power comp))
      0 l

(** Functions reachable from each entry, over the call graph; a loop in
    [f] may re-enable a component if any core whose entry reaches [f]
    uses it somewhere — gating is a per-core decision, not a
    per-function one. *)
let core_use_table (prog : Prog.t) (cu : Compuse.t) :
    (string, CS.t) Hashtbl.t =
  let table = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace table f.Prog.fname CS.empty)
    (Prog.funcs prog);
  List.iter
    (fun entry ->
      let entry_use = Compuse.func_use cu entry in
      let visited = Hashtbl.create 16 in
      let rec visit name =
        if not (Hashtbl.mem visited name) then begin
          Hashtbl.replace visited name ();
          Hashtbl.replace table name
            (CS.union entry_use
               (Option.value ~default:CS.empty (Hashtbl.find_opt table name)));
          match Prog.find_func prog name with
          | None -> ()
          | Some f ->
            Prog.iter_instrs f (fun _ i ->
                match i.Ir.idesc with
                | Ir.Call (_, callee, _) -> visit callee
                | _ -> ())
        end
      in
      visit entry)
    (Prog.entries prog);
  table

(** Gate idle components around loops of [f].  Returns insertions done. *)
let loop_gating ~opts ~report ~am ~classes (m : Machine.t) (cu : Compuse.t)
    ~(core_use : CS.t) (f : Prog.func) : int =
  let changes = ref 0 in
  let loops = Manager.loops am f in
  (* outermost first; remember which comps an enclosing loop already
     gates so inner loops don't re-gate them *)
  let gated_by : (Ir.label * CS.t) list ref = ref [] in
  List.iter
    (fun l ->
      let enclosing_gated =
        List.fold_left
          (fun acc (h, cs) ->
            match List.find_opt (fun l' -> l'.Loops.header = h) loops with
            | Some outer
              when outer.Loops.header <> l.Loops.header
                   && Loops.LS.subset l.Loops.blocks outer.Loops.blocks ->
              CS.union acc cs
            | _ -> acc)
          CS.empty !gated_by
      in
      let idle = Compuse.loop_idle cu f l in
      let gateable =
        CS.filter
          (fun c ->
            CS.mem c core_use (* used elsewhere on this core *)
            && List.mem c m.Machine.components)
          idle
      in
      let suppressed = CS.inter gateable enclosing_gated in
      let candidates = CS.diff gateable suppressed in
      if not (CS.is_empty gateable) then begin
        let est = Manager.loop_est am m f l in
        let to_gate =
          CS.filter
            (fun c ->
              est.Est.total_cycles
              >= opts.break_even_scale
                 *. float_of_int (break_even_for m classes c))
            candidates
        in
        let below = CS.diff candidates to_gate in
        let inserted, landings =
          if CS.is_empty to_gate then (CS.empty, 0)
          else
            match Region.preheader am f l with
            | None -> (CS.empty, 0)
            | Some pre ->
              let loc = Region.loop_loc f l in
              Region.append ~loc f pre (Ir.Pg_off to_gate);
              let ls = Region.exit_landings f l in
              List.iter
                (fun landing ->
                  Region.prepend ~loc f landing (Ir.Pg_on to_gate))
                ls;
              gated_by := (l.Loops.header, to_gate) :: !gated_by;
              changes := !changes + 1 + List.length l.Loops.exits;
              (to_gate, List.length ls)
        in
        if Report.enabled report then
          Report.add report
            (Report.Gating_insert
               {
                 gi_func = f.Prog.fname;
                 gi_site = Printf.sprintf "loop@b%d" l.Loops.header;
                 gi_kind = Report.Loop_gate;
                 gi_components = comp_names inserted;
                 gi_suppressed = comp_names suppressed;
                 gi_below_break_even = comp_names below;
                 gi_est_cycles = est.Est.total_cycles;
                 gi_landings = landings;
               })
      end)
    loops;
  !changes

(** Gate never-used components at each core entry. *)
let entry_gating ~report (m : Machine.t) (prog : Prog.t)
    (cu : Compuse.t) : int =
  let changes = ref 0 in
  List.iter
    (fun entry ->
      match Prog.find_func prog entry with
      | None -> ()
      | Some f ->
        let never =
          CS.filter
            (fun c -> List.mem c m.Machine.components)
            (Compuse.never_used cu ~entry)
        in
        if not (CS.is_empty never) then begin
          let b = Prog.block f f.Prog.entry in
          Region.prepend f b (Ir.Pg_off never);
          incr changes;
          if Report.enabled report then
            Report.add report
              (Report.Gating_insert
                 {
                   gi_func = f.Prog.fname;
                   gi_site = "entry";
                   gi_kind = Report.Entry_gate;
                   gi_components = comp_names never;
                   gi_suppressed = [];
                   gi_below_break_even = [];
                   gi_est_cycles = 0.0;
                   gi_landings = 0;
                 })
        end)
    (Prog.entries prog);
  !changes

let insert ?(opts = default_options) ?(report = Report.disabled) ~am
    (m : Machine.t) (prog : Prog.t) : int =
  let cu = Manager.compuse am in
  let core_use = core_use_table prog cu in
  let fclasses = func_classes prog m in
  let n =
    List.fold_left
      (fun acc f ->
        let u =
          Option.value ~default:CS.empty
            (Hashtbl.find_opt core_use f.Prog.fname)
        in
        let classes =
          Option.value ~default:[] (Hashtbl.find_opt fclasses f.Prog.fname)
        in
        acc + loop_gating ~opts ~report ~am ~classes m cu ~core_use:u f)
      0 (Prog.funcs prog)
  in
  n + entry_gating ~report m prog cu

(* ------------------------------------------------------------------ *)
(* Sink-N-Hoist merge                                                  *)
(* ------------------------------------------------------------------ *)

(** Per-block rewrite; see module header for the three rules.
    [classes] are the core classes that can execute this block (for the
    drop-short-region break-even; machine worst case when empty). *)
let merge_block ?(report = Report.disabled) ?(classes = []) ~fname
    (m : Machine.t) (b : Ir.block) : int =
  let changes = ref 0 in
  let emit rule comps =
    if Report.enabled report then
      Report.add report
        (Report.Gating_merge
           {
             gm_func = fname;
             gm_block = b.Ir.bid;
             gm_rule = rule;
             gm_components = comps;
           })
  in
  let arr = Array.of_list b.Ir.instrs in
  let n = Array.length arr in
  (* cumulative nominal cycles before each position, counting only
     non-gating instructions *)
  let cycles_before = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let c =
      match arr.(i).Ir.idesc with
      | Ir.Pg_off _ | Ir.Pg_on _ -> 0
      | _ -> Ir.base_latency arr.(i)
    in
    cycles_before.(i + 1) <- cycles_before.(i) + c
  done;
  (* last_on.(c) / last_off.(c): position of the latest un-invalidated
     gating instruction affecting component c *)
  let last_on = Array.make Component.count (-1) in
  let last_off = Array.make Component.count (-1) in
  let remove_comp pos comp =
    match arr.(pos).Ir.idesc with
    | Ir.Pg_off cs -> arr.(pos).Ir.idesc <- Ir.Pg_off (CS.remove comp cs)
    | Ir.Pg_on cs -> arr.(pos).Ir.idesc <- Ir.Pg_on (CS.remove comp cs)
    | _ -> ()
  in
  for i = 0 to n - 1 do
    match arr.(i).Ir.idesc with
    | Ir.Pg_on cs ->
      CS.iter
        (fun c ->
          let k = Component.index c in
          if last_off.(k) >= 0 then begin
            (* pg_off ... pg_on: keep only if region length >= break-even *)
            let region = cycles_before.(i) - cycles_before.(last_off.(k)) in
            if region < break_even_for m classes c then begin
              remove_comp last_off.(k) c;
              remove_comp i c;
              incr changes;
              emit "drop-short-region" [ Component.to_string c ];
              last_off.(k) <- -1;
              last_on.(k) <- -1
            end
            else begin
              last_off.(k) <- -1;
              last_on.(k) <- i
            end
          end
          else last_on.(k) <- i)
        cs
    | Ir.Pg_off cs ->
      CS.iter
        (fun c ->
          let k = Component.index c in
          if last_on.(k) >= 0 then begin
            (* pg_on ... pg_off with no use in between: stay off *)
            remove_comp last_on.(k) c;
            remove_comp i c;
            incr changes;
            emit "cancel-stay-off" [ Component.to_string c ];
            last_on.(k) <- -1;
            last_off.(k) <- -1
          end
          else begin
            last_on.(k) <- -1;
            last_off.(k) <- i
          end)
        cs
    | _ ->
      let c = Ir.component_of arr.(i) in
      let k = Component.index c in
      last_on.(k) <- -1;
      last_off.(k) <- -1
  done;
  (* merge adjacent same-polarity gating instructions, drop empties *)
  let merged = ref [] in
  Array.iter
    (fun (i : Ir.instr) ->
      match (i.Ir.idesc, !merged) with
      | ((Ir.Pg_off s | Ir.Pg_on s), _) when CS.is_empty s -> incr changes
      | (Ir.Pg_off s, prev :: rest) -> (
        match prev.Ir.idesc with
        | Ir.Pg_off s' ->
          prev.Ir.idesc <- Ir.Pg_off (CS.union s s');
          incr changes;
          emit "merge-adjacent" (comp_names (CS.union s s'));
          merged := prev :: rest
        | _ -> merged := i :: !merged)
      | (Ir.Pg_on s, prev :: rest) -> (
        match prev.Ir.idesc with
        | Ir.Pg_on s' ->
          prev.Ir.idesc <- Ir.Pg_on (CS.union s s');
          incr changes;
          emit "merge-adjacent" (comp_names (CS.union s s'));
          merged := prev :: rest
        | _ -> merged := i :: !merged)
      | _ -> merged := i :: !merged)
    arr;
  b.Ir.instrs <- List.rev !merged;
  !changes

let merge ?(report = Report.disabled) (m : Machine.t) (prog : Prog.t) : int =
  let fclasses = func_classes prog m in
  List.fold_left
    (fun acc f ->
      let classes =
        Option.value ~default:[] (Hashtbl.find_opt fclasses f.Prog.fname)
      in
      let n =
        List.fold_left
          (fun acc b ->
            acc + merge_block ~report ~classes ~fname:f.Prog.fname m b)
          0 (Prog.blocks_in_order f)
      in
      if n > 0 then Prog.touch f;
      acc + n)
    0 (Prog.funcs prog)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type counts = { off_instrs : int; on_instrs : int; components_toggled : int }

let count_gating (prog : Prog.t) : counts =
  List.fold_left
    (fun acc f ->
      Prog.fold_instrs f
        (fun acc _ i ->
          match i.Ir.idesc with
          | Ir.Pg_off s ->
            { acc with
              off_instrs = acc.off_instrs + 1;
              components_toggled = acc.components_toggled + CS.cardinal s }
          | Ir.Pg_on s ->
            { acc with
              on_instrs = acc.on_instrs + 1;
              components_toggled = acc.components_toggled + CS.cardinal s }
          | _ -> acc)
        acc)
    { off_instrs = 0; on_instrs = 0; components_toggled = 0 }
    (Prog.funcs prog)

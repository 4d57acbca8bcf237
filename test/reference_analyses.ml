(** Reference formulations of two optimizer analyses, kept as test
    oracles for the production ones (see the oracle properties in
    [Test_props]):

    - constant propagation's entry states by plain round-robin: every
      sweep visits the blocks in reverse postorder and re-joins each one
      from freshly transferred predecessor states, until a sweep changes
      nothing.  It shares the lattice (and so the bit-pattern comparison
      of float constants) with [Constprop], but none of the solver's
      caching: no exit-state cache, no in-place joins, no skipping of
      blocks whose predecessors did not move;
    - register liveness on balanced-tree integer sets through the generic
      dataflow framework, with the per-block use/def sets rebuilt by
      [Set.add]/[Set.remove] scans.

    Both are deliberately the simple, slow versions. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Cfg = Lp_analysis.Cfg
module Dataflow = Lp_analysis.Dataflow
module CP = Lp_transforms.Constprop

(* ------------------------------------------------------------------ *)
(* Constant propagation                                                *)
(* ------------------------------------------------------------------ *)

let join_state (a : CP.state) (b : CP.state) : CP.state =
  Array.init (Array.length a) (fun i -> CP.join_cell a.(i) b.(i))

let transfer_block (f : Prog.func) (st : CP.state) (bid : Ir.label) :
    CP.state =
  let st = Array.copy st in
  List.iter (CP.transfer_instr st) (Prog.block f bid).Ir.instrs;
  st

(** Entry state of every reachable block. *)
let constprop_entry_states (f : Prog.func) : (Ir.label, CP.state) Hashtbl.t =
  let nregs = max 1 (Lp_util.Id_gen.peek f.Prog.reg_gen) in
  let cfg = Cfg.build f in
  let entry_states = Hashtbl.create 16 in
  let bottom () = Array.make nregs CP.Unknown in
  let initial = bottom () in
  List.iter (fun (r, _) -> initial.(r) <- CP.Varying) f.Prog.params;
  Hashtbl.replace entry_states f.Prog.entry initial;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun bid ->
        let in_state =
          match Cfg.preds cfg bid with
          | [] ->
            Option.value ~default:(bottom ()) (Hashtbl.find_opt entry_states bid)
          | preds ->
            let base = if bid = f.Prog.entry then initial else bottom () in
            List.fold_left
              (fun acc p ->
                match Hashtbl.find_opt entry_states p with
                | Some st -> join_state acc (transfer_block f st p)
                | None -> acc)
              base preds
        in
        match Hashtbl.find_opt entry_states bid with
        | Some old when CP.equal_state old in_state -> ()
        | _ ->
          Hashtbl.replace entry_states bid in_state;
          changed := true)
      cfg.Cfg.rpo
  done;
  entry_states

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

module IS = Set.Make (Int)

module Flow = Dataflow.Make (struct
  type t = IS.t
  let bottom = IS.empty
  let equal = IS.equal
  let join = IS.union
end)

type liveness = {
  live_in : Ir.label -> int list;  (** ascending *)
  live_out : Ir.label -> int list;  (** ascending *)
}

let liveness (f : Prog.func) : liveness =
  let cfg = Cfg.build f in
  let use_def = Hashtbl.create 16 in
  Prog.iter_blocks f (fun b ->
      let use = ref IS.empty and def = ref IS.empty in
      let see_uses rs =
        List.iter (fun r -> if not (IS.mem r !def) then use := IS.add r !use) rs
      in
      List.iter
        (fun i ->
          see_uses (Ir.uses i);
          match Ir.def i with Some d -> def := IS.add d !def | None -> ())
        b.Ir.instrs;
      see_uses (Ir.term_uses b.Ir.term);
      Hashtbl.replace use_def b.Ir.bid (!use, !def));
  let transfer l out_set =
    match Hashtbl.find_opt use_def l with
    | Some (use, def) -> IS.union use (IS.diff out_set def)
    | None -> out_set
  in
  let r =
    Flow.run ~direction:Dataflow.Backward ~cfg ~init:IS.empty ~transfer
  in
  let live_in l = Flow.output r l in
  {
    live_in = (fun l -> IS.elements (live_in l));
    live_out =
      (fun l ->
        IS.elements
          (List.fold_left
             (fun acc s -> IS.union acc (live_in s))
             IS.empty (Cfg.succs cfg l)));
  }

(** Loop-invariant code motion.

    Hoists pure, non-trapping instructions whose operands are defined
    outside the loop into the loop preheader.  Divisions and loads are
    never hoisted (they can trap on a zero divisor or an out-of-bounds
    index when the loop body would not have executed), so hoisting is
    always safe to do speculatively.

    Because the IR is not SSA, a candidate's destination register must be
    defined exactly once in the whole function — then moving the single
    definition cannot interfere with any other definition of the same
    register. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Loops = Lp_analysis.Loops
module Manager = Lp_analysis.Manager

let hoistable (i : Ir.instr) : bool =
  match i.Ir.idesc with
  | Ir.Const _ | Ir.Move _ | Ir.Mac _ -> true
  | Ir.Binop (op, _, _, _) -> (
    match op with Ir.Div | Ir.Mod | Ir.Fdiv -> false | _ -> true)
  | Ir.Unop _ -> true
  | Ir.Load _ | Ir.Store _ | Ir.Call _ | Ir.Pg_off _ | Ir.Pg_on _ | Ir.Dvfs _
  | Ir.Send _ | Ir.Recv _ | Ir.Barrier _ | Ir.Faa _ -> false

(** Registers with more than one definition in the function (or defined
    and also a parameter). *)
let multi_def_regs (f : Prog.func) : (Ir.reg, unit) Hashtbl.t =
  let seen = Hashtbl.create 64 in
  let multi = Hashtbl.create 16 in
  List.iter (fun (r, _) -> Hashtbl.replace seen r ()) f.Prog.params;
  Prog.iter_instrs f (fun _ i ->
      match Ir.def i with
      | Some d ->
        if Hashtbl.mem seen d then Hashtbl.replace multi d ()
        else Hashtbl.replace seen d ()
      | None -> ());
  multi

let run_func ?(find_loops = Loops.find) ?cfg_of (f : Prog.func) : int =
  let hoisted = ref 0 in
  let loops = find_loops f in
  let multi = multi_def_regs f in
  (* innermost loops first: hoisting out of an inner loop may enable the
     next fixpoint round to hoist further out of the outer loop *)
  let loops =
    List.sort (fun a b -> compare b.Loops.depth a.Loops.depth) loops
  in
  List.iter
    (fun l ->
      (* registers defined anywhere inside the loop *)
      let defined_inside = Hashtbl.create 32 in
      Loops.LS.iter
        (fun bid ->
          List.iter
            (fun i ->
              match Ir.def i with
              | Some d -> Hashtbl.replace defined_inside d ()
              | None -> ())
            (Prog.block f bid).Ir.instrs)
        l.Loops.blocks;
      (* collect candidates in one sweep; hoisting removes them from their
         block and appends to the preheader in original order *)
      let candidates = ref [] in
      Loops.LS.iter
        (fun bid ->
          let b = Prog.block f bid in
          List.iter
            (fun (i : Ir.instr) ->
              match Ir.def i with
              | Some d
                when hoistable i
                     && (not (Hashtbl.mem multi d))
                     && List.for_all
                          (fun u -> not (Hashtbl.mem defined_inside u))
                          (Ir.uses i) ->
                candidates := (b, i) :: !candidates
              | _ -> ())
            b.Ir.instrs)
        l.Loops.blocks;
      match !candidates with
      | [] -> ()
      | cands -> (
        match Region.preheader ?cfg_of f l with
        | None -> ()
        | Some pre ->
          List.iter
            (fun (b, i) ->
              b.Ir.instrs <- List.filter (fun j -> j != i) b.Ir.instrs;
              pre.Ir.instrs <- pre.Ir.instrs @ [ i ];
              (* its destination now counts as defined outside; but a
                 conservative single pass per fixpoint round is enough *)
              incr hoisted)
            (List.rev cands);
          Prog.touch f))
    loops;
  !hoisted

let pass : Pass.func_pass =
  {
    Pass.name = "licm";
    preserves = [];
    local = true;
    run =
      (fun am _ f ->
        run_func ~find_loops:(Manager.loops am) ~cfg_of:(Manager.cfg am) f);
  }

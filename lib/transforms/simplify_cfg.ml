(** CFG cleanup: unreachable-block pruning, jump threading through empty
    blocks, straight-line block merging, and trivial-branch collapsing.

    Running this between gating insertion and the Sink-N-Hoist merge is
    load-bearing: it fuses the [pg_on]-on-exit block of one loop with the
    [pg_off]-preheader of the next, turning the cross-region merge into a
    local rewrite. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Cfg = Lp_analysis.Cfg
module Manager = Lp_analysis.Manager

(** Collapse [Br c l l] into [Jmp l]. *)
let collapse_trivial_br (f : Prog.func) : int =
  let n = ref 0 in
  Prog.iter_blocks f (fun b ->
      match b.Ir.term with
      | Ir.Br (_, l1, l2) when l1 = l2 ->
        incr n;
        b.Ir.term <- Ir.Jmp l1
      | Ir.Br _ | Ir.Jmp _ | Ir.Ret _ -> ());
  if !n > 0 then Prog.touch f;
  !n

(** Thread jumps through empty forwarding blocks (no instructions,
    terminator [Jmp l]).  The entry block is never removed. *)
let thread_empty (f : Prog.func) : int =
  let n = ref 0 in
  let forward = Hashtbl.create 8 in
  Prog.iter_blocks f (fun b ->
      match (b.Ir.instrs, b.Ir.term) with
      | ([], Ir.Jmp l) when b.Ir.bid <> f.Prog.entry && l <> b.Ir.bid ->
        Hashtbl.replace forward b.Ir.bid l
      | _ -> ());
  (* resolve chains, guarding against cycles *)
  let rec resolve seen l =
    match Hashtbl.find_opt forward l with
    | Some next when not (List.mem next seen) -> resolve (l :: seen) next
    | Some _ | None -> l
  in
  Prog.iter_blocks f (fun b ->
      let new_term =
        match b.Ir.term with
        | Ir.Jmp l ->
          let l' = resolve [ b.Ir.bid ] l in
          if l' <> l then incr n;
          Ir.Jmp l'
        | Ir.Br (c, l1, l2) ->
          let l1' = resolve [ b.Ir.bid ] l1 in
          let l2' = resolve [ b.Ir.bid ] l2 in
          if l1' <> l1 || l2' <> l2 then incr n;
          Ir.Br (c, l1', l2')
        | Ir.Ret _ as t -> t
      in
      b.Ir.term <- new_term);
  if !n > 0 then Prog.touch f;
  !n

(** Merge [b -> c] when [b] ends in [Jmp c] and [c] has exactly one
    predecessor (and is not the entry).  One forward pass over the
    layout: each block absorbs successors while it can, and the
    predecessor lists are patched as blocks disappear.  A merge only
    renames [c] to [b] in the predecessor lists of [c]'s successors, so
    it never makes an earlier block mergeable: this makes the same merges
    in the same order as rescanning from the first block after each one.
    Every block is reachable here ([run_func] prunes first), so the CFG's
    predecessor lists cover the whole layout. *)
let merge_linear (am : Manager.t) (f : Prog.func) : int =
  let preds = Hashtbl.copy (Manager.cfg am f).Cfg.preds in
  let preds_of l = try Hashtbl.find preds l with Not_found -> [] in
  let merged = Hashtbl.create 8 in
  let rec absorb (b : Ir.block) =
    match b.Ir.term with
    | Ir.Jmp c_id
      when c_id <> f.Prog.entry && c_id <> b.Ir.bid
           && preds_of c_id = [ b.Ir.bid ] ->
      let c = Prog.block f c_id in
      b.Ir.instrs <- b.Ir.instrs @ c.Ir.instrs;
      b.Ir.term <- c.Ir.term;
      List.iter
        (fun s ->
          Hashtbl.replace preds s
            (List.map (fun p -> if p = c_id then b.Ir.bid else p) (preds_of s)))
        (Ir.term_succs c.Ir.term);
      Hashtbl.remove f.Prog.blocks c_id;
      Hashtbl.replace merged c_id ();
      absorb b
    | Ir.Jmp _ | Ir.Br _ | Ir.Ret _ -> ()
  in
  List.iter
    (fun bid -> if not (Hashtbl.mem merged bid) then absorb (Prog.block f bid))
    f.Prog.block_order;
  let n = Hashtbl.length merged in
  if n > 0 then begin
    f.Prog.block_order <-
      List.filter (fun l -> not (Hashtbl.mem merged l)) f.Prog.block_order;
    Prog.touch f
  end;
  n

let run_func (am : Manager.t) (f : Prog.func) : int =
  let c1 = collapse_trivial_br f in
  let c2 = thread_empty f in
  let c3 = Cfg.prune_unreachable_of (Manager.cfg am f) in
  let c4 = merge_linear am f in
  c1 + c2 + c3 + c4

let pass : Pass.func_pass =
  {
    Pass.name = "simplify-cfg";
    preserves = [];
    local = true;
    run = (fun am _ f -> run_func am f);
  }

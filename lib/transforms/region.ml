(** Loop-region instrumentation: create a preheader to hold instructions
    executed once before a natural loop, and split exit edges to hold
    instructions executed once after it.  Shared by the gating and DVFS
    insertion passes. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Cfg = Lp_analysis.Cfg
module Loops = Lp_analysis.Loops
module Manager = Lp_analysis.Manager

let retarget_term term ~from ~to_ =
  match term with
  | Ir.Jmp l when l = from -> Ir.Jmp to_
  | Ir.Br (c, l1, l2) ->
    Ir.Br
      (c, (if l1 = from then to_ else l1), if l2 = from then to_ else l2)
  | Ir.Jmp _ | Ir.Ret _ -> term

(** Create (or reuse) a preheader for [l]: a block through which every
    entry into the loop passes.  Returns [None] when the loop header is
    the function entry (cannot be given a preheader without changing the
    entry).  The CFG is asked of [am] on every call, so a preheader
    inserted for an earlier loop of [f] is seen. *)
let preheader am (f : Prog.func) (l : Loops.loop) : Ir.block option =
  if l.Loops.header = f.Prog.entry then None
  else begin
    let cfg = Manager.cfg am f in
    let outside_preds =
      List.filter
        (fun p -> not (Loops.contains l p))
        (Cfg.preds cfg l.Loops.header)
    in
    match outside_preds with
    | [ p ] -> (
      (* a unique outside predecessor that only jumps to the header is
         already a preheader *)
      let pb = Prog.block f p in
      match pb.Ir.term with
      | Ir.Jmp _ -> Some pb
      | Ir.Br _ | Ir.Ret _ ->
        let nb = Prog.new_block f in
        nb.Ir.term <- Ir.Jmp l.Loops.header;
        pb.Ir.term <-
          retarget_term pb.Ir.term ~from:l.Loops.header ~to_:nb.Ir.bid;
        Prog.touch f;
        Some nb)
    | _ ->
      let nb = Prog.new_block f in
      nb.Ir.term <- Ir.Jmp l.Loops.header;
      List.iter
        (fun p ->
          let pb = Prog.block f p in
          pb.Ir.term <-
            retarget_term pb.Ir.term ~from:l.Loops.header ~to_:nb.Ir.bid)
        outside_preds;
      Prog.touch f;
      Some nb
  end

(** Split every exit edge of [l], returning the landing blocks (one per
    exit edge) into which post-loop instructions can be inserted. *)
let exit_landings (f : Prog.func) (l : Loops.loop) : Ir.block list =
  List.map
    (fun (inside, outside) ->
      let nb = Prog.new_block f in
      nb.Ir.term <- Ir.Jmp outside;
      let ib = Prog.block f inside in
      ib.Ir.term <- retarget_term ib.Ir.term ~from:outside ~to_:nb.Ir.bid;
      Prog.touch f;
      nb)
    l.Loops.exits

(** Provenance for instructions synthesised next to existing code: an
    explicit [?loc] wins; otherwise inherit from the neighbouring
    instruction ([last] for appends, first for prepends) so gating/DVFS
    brackets attribute to the region they guard rather than to "no
    source line". *)
let neighbour_loc ?loc (instrs : Ir.instr list) ~last : Ir.loc =
  match loc with
  | Some l -> l
  | None -> (
    let n = match (last, instrs) with
      | (false, i :: _) -> Some i
      | (false, []) -> None
      | (true, _) -> (
        match List.rev instrs with i :: _ -> Some i | [] -> None)
    in
    match n with Some i -> i.Ir.loc | None -> Ir.no_loc)

(** Provenance of a loop: the first source-located instruction of the
    header block ([Ir.no_loc] for fully synthetic loops).  Gating and
    DVFS brackets inserted around a loop are stamped with this, so the
    profiler attributes transition overheads to the loop they guard. *)
let loop_loc (f : Prog.func) (l : Loops.loop) : Ir.loc =
  let hb = Prog.block f l.Loops.header in
  let rec first = function
    | [] -> Ir.no_loc
    | (i : Ir.instr) :: rest ->
      if i.Ir.loc.Ir.line > 0 then i.Ir.loc else first rest
  in
  first hb.Ir.instrs

(** Append an instruction to a block. *)
let append ?loc (f : Prog.func) (b : Ir.block) idesc =
  let loc = neighbour_loc ?loc b.Ir.instrs ~last:true in
  b.Ir.instrs <- b.Ir.instrs @ [ Prog.new_instr ~loc f idesc ];
  Prog.touch f

(** Prepend an instruction to a block. *)
let prepend ?loc (f : Prog.func) (b : Ir.block) idesc =
  let loc = neighbour_loc ?loc b.Ir.instrs ~last:false in
  b.Ir.instrs <- Prog.new_instr ~loc f idesc :: b.Ir.instrs;
  Prog.touch f

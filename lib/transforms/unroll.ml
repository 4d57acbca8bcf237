(** Full unrolling of tiny constant-trip loops.

    Loops of the exact shape the lowering emits (one condition block, one
    body block) with a known constant trip count of at most
    [max_trip] and a body of at most [max_body] instructions are
    replaced by the body replicated trip-count times.  Because the IR is
    not SSA, replication is just sequential re-execution of the same
    registers, so copies only need fresh instruction ids.

    The payoff is compound: after unrolling, the induction variable is a
    chain of constants, so global constant propagation and folding
    typically dissolve the whole loop (e.g. small fixed-tap filter
    kernels become straight-line MAC sequences). *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog
module Loops = Lp_analysis.Loops
module Manager = Lp_analysis.Manager

let max_trip = 4
let max_body = 16

(** Recognise the two-block shape: header H with [Br (c, body, exit)] and
    body B ending in [Jmp H]; the loop's blocks are exactly {H, B}. *)
let two_block_shape (f : Prog.func) (l : Loops.loop) :
    (Ir.block * Ir.block * Ir.label) option =
  if Loops.LS.cardinal l.Loops.blocks <> 2 then None
  else begin
    let header = Prog.block f l.Loops.header in
    match header.Ir.term with
    | Ir.Br (_, body_id, exit_id)
      when Loops.contains l body_id
           && (not (Loops.contains l exit_id))
           && body_id <> l.Loops.header -> (
      let body = Prog.block f body_id in
      match body.Ir.term with
      | Ir.Jmp back when back = l.Loops.header -> Some (header, body, exit_id)
      | _ -> None)
    | _ -> None
  end

let copy_instrs (f : Prog.func) (instrs : Ir.instr list) : Ir.instr list =
  (* cloned iterations keep the original instruction's provenance *)
  List.map
    (fun (i : Ir.instr) -> Prog.new_instr ~loc:i.Ir.loc f i.Ir.idesc)
    instrs

let run_func am (f : Prog.func) : int =
  let changes = ref 0 in
  let loops = Manager.loops am f in
  (* only innermost loops (no other loop strictly inside) *)
  let innermost l =
    not
      (List.exists
         (fun l' ->
           l'.Loops.header <> l.Loops.header
           && Loops.LS.subset l'.Loops.blocks l.Loops.blocks)
         loops)
  in
  List.iter
    (fun l ->
      if innermost l then
        match (Loops.constant_trip f l, two_block_shape f l) with
        | (Some trip, Some (header, body, exit_id))
          when trip >= 0 && trip <= max_trip
               && List.length body.Ir.instrs <= max_body ->
          (* the unrolled sequence must still evaluate the header's
             condition computation (it may define registers used later),
             then execute the body [trip] times; the final header
             evaluation is kept so post-loop uses of its defs stay
             valid. *)
          let pieces = ref [] in
          for _ = 1 to trip do
            pieces := !pieces @ copy_instrs f header.Ir.instrs
                      @ copy_instrs f body.Ir.instrs
          done;
          pieces := !pieces @ copy_instrs f header.Ir.instrs;
          header.Ir.instrs <- !pieces;
          header.Ir.term <- Ir.Jmp exit_id;
          Prog.touch f;
          (* the body block becomes unreachable; simplify-cfg prunes it *)
          incr changes
        | _ -> ())
    loops;
  !changes

let pass : Pass.func_pass =
  {
    Pass.name = "unroll";
    preserves = [];
    local = true;
    run = (fun am _ f -> run_func am f);
  }

(** Generic iterative dataflow framework over basic blocks.

    Problems supply a join semilattice and a per-block transfer function;
    the framework runs a true worklist to fixpoint: seeded in reverse
    postorder (reverse RPO for backward problems) and re-queueing only the
    successors (resp. predecessors) of blocks whose output changed, so
    unaffected regions of the CFG are never re-visited.  Used by liveness,
    by the component-activity analysis behind power gating, and by tests
    that define toy problems to exercise the machinery. *)

module Ir = Lp_ir.Ir

module type LATTICE = sig
  type t
  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

type direction = Forward | Backward

(** A block's output must stop changing after at most the lattice height
    many updates; a transfer/join pair that keeps flipping a block's value
    past this bound is not monotone. *)
let max_output_changes = 100_000

module Make (L : LATTICE) = struct
  (* Per-block values live in arrays indexed by label: labels come out of
     the function's block generator, so its [peek] bounds them. *)
  type result = {
    inputs : L.t array;   (** value at block entry (forward) or exit
                              (backward) *)
    outputs : L.t array;  (** value after the transfer *)
  }

  let get a l = if l < Array.length a then a.(l) else L.bottom

  (** [run ~direction ~cfg ~init ~transfer] iterates to fixpoint.
      [init] seeds the entry (forward) or every exit block (backward). *)
  let run ~direction ~(cfg : Cfg.t) ~(init : L.t)
      ~(transfer : Ir.label -> L.t -> L.t) : result =
    let n = Lp_util.Id_gen.peek cfg.Cfg.func.Lp_ir.Prog.block_gen in
    let inputs = Array.make n L.bottom in
    let outputs = Array.make n L.bottom in
    let blocks = cfg.Cfg.rpo in
    let order =
      match direction with Forward -> blocks | Backward -> List.rev blocks
    in
    let neighbours_in l =
      match direction with
      | Forward -> Cfg.preds cfg l
      | Backward -> Cfg.succs cfg l
    in
    let neighbours_out l =
      match direction with
      | Forward -> Cfg.succs cfg l
      | Backward -> Cfg.preds cfg l
    in
    (* exit blocks computed once: re-deriving [succs = []] on every
       backward visit is wasted work on the hot path *)
    let exits = Array.make n false in
    List.iter (fun l -> if Cfg.succs cfg l = [] then exits.(l) <- true) blocks;
    let is_boundary l =
      match direction with
      | Forward -> l = cfg.Cfg.func.Lp_ir.Prog.entry
      | Backward -> exits.(l)
    in
    let queue = Queue.create () in
    let queued = Array.make n false in
    let changes = Array.make n 0 in
    let enqueue l =
      if not queued.(l) then begin
        queued.(l) <- true;
        Queue.push l queue
      end
    in
    List.iter enqueue order;
    while not (Queue.is_empty queue) do
      let l = Queue.pop queue in
      queued.(l) <- false;
      let in_v =
        let base = if is_boundary l then init else L.bottom in
        List.fold_left
          (fun acc p -> L.join acc outputs.(p))
          base (neighbours_in l)
      in
      let out_v = transfer l in_v in
      inputs.(l) <- in_v;
      if not (L.equal outputs.(l) out_v) then begin
        changes.(l) <- changes.(l) + 1;
        if changes.(l) > max_output_changes then
          failwith
            (Printf.sprintf
               "Dataflow.run: monotonicity violation at block L%d (output \
                changed %d times without converging)"
               l changes.(l));
        outputs.(l) <- out_v;
        List.iter enqueue (neighbours_out l)
      end
    done;
    { inputs; outputs }

  let input r l = get r.inputs l
  let output r l = get r.outputs l
end

(** Register sets as bit vectors (liveness). *)
module Bitset_lattice = struct
  type t = Bitset.t
  let bottom = Bitset.empty
  let equal = Bitset.equal
  let join = Bitset.union
end

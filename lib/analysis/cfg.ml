(** Control-flow graph view of an IR function: predecessor/successor maps
    and a reverse-postorder traversal. *)

module Ir = Lp_ir.Ir
module Prog = Lp_ir.Prog

type t = {
  func : Prog.func;
  succs : (Ir.label, Ir.label list) Hashtbl.t;
  preds : (Ir.label, Ir.label list) Hashtbl.t;
  rpo : Ir.label list;  (** reverse postorder from entry; entry first *)
  reach : (Ir.label, unit) Hashtbl.t;  (** the members of [rpo], for lookup *)
}

let succs t l = try Hashtbl.find t.succs l with Not_found -> []
let preds t l = try Hashtbl.find t.preds l with Not_found -> []

let build (f : Prog.func) : t =
  (* discover reachable blocks first so that edges out of dead blocks do
     not pollute predecessor sets (lowering leaves dead continuation
     blocks after mid-block returns until simplify-cfg prunes them) *)
  let visited = Hashtbl.create 16 in
  let post = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.replace visited l ();
      List.iter dfs (Ir.term_succs (Prog.block f l).Ir.term);
      post := l :: !post
    end
  in
  dfs f.Prog.entry;
  let succs = Hashtbl.create 16 in
  let preds = Hashtbl.create 16 in
  (* accumulate predecessors reversed (cons per edge), then reverse each
     list once at the end — appending per edge is quadratic in the
     predecessor count *)
  List.iter
    (fun bid ->
      let ss = Ir.term_succs (Prog.block f bid).Ir.term in
      Hashtbl.replace succs bid ss;
      List.iter
        (fun s ->
          let cur = try Hashtbl.find preds s with Not_found -> [] in
          Hashtbl.replace preds s (bid :: cur))
        ss)
    !post;
  Hashtbl.filter_map_inplace (fun _ cur -> Some (List.rev cur)) preds;
  { func = f; succs; preds; rpo = !post; reach = visited }

(** Blocks reachable from the entry. *)
let reachable t = t.rpo

let is_reachable t l = Hashtbl.mem t.reach l

(** Remove unreachable blocks from the function layout (and table),
    deciding reachability from an already-built [cfg] (the caller may
    hold a cached one).  Touches the function only when something was
    actually pruned, so a no-op prune does not invalidate caches. *)
let prune_unreachable_of (cfg : t) : int =
  let f = cfg.func in
  let before = List.length f.Prog.block_order in
  let kept = List.filter (fun l -> is_reachable cfg l) f.Prog.block_order in
  let removed = before - List.length kept in
  if removed > 0 then begin
    f.Prog.block_order <- kept;
    Prog.prune_blocks f
  end;
  removed

(** Remove unreachable blocks from the function layout (and table). *)
let prune_unreachable (f : Prog.func) : int = prune_unreachable_of (build f)

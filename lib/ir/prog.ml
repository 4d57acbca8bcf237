(** IR functions and programs. *)

type func = {
  fname : string;
  params : (Ir.reg * Ir.ty) list;
  ret : Ir.ty option;
  entry : Ir.label;
  blocks : (Ir.label, Ir.block) Hashtbl.t;
  mutable block_order : Ir.label list;
      (** layout order; entry first; analyses iterate in this order *)
  mutable frame_arrays : (string * Ir.ty * int) list;
      (** local arrays: name, element type, length *)
  mutable version : int;
      (** monotonic mutation stamp; every IR change must bump it (via
          {!touch}) so cached analyses keyed on it can tell stale results
          from fresh ones *)
  reg_gen : Lp_util.Id_gen.t;
  block_gen : Lp_util.Id_gen.t;
  instr_gen : Lp_util.Id_gen.t;
}

(** Bump [f]'s mutation stamp.  This is the single invalidation funnel
    for the analysis cache: call it after any in-place change to the
    function's blocks, instructions or terminators that did not go
    through a [Prog] mutator (which touch themselves). *)
let touch f = f.version <- f.version + 1

let version f = f.version

type global = {
  gsym : string;
  gty : Ir.ty;
  gsize : int;                (** 1 for scalars *)
  ginit : int list option;    (** initialiser for integer globals *)
}

(** How the program occupies the machine. *)
type layout =
  | Sequential
      (** one core runs [main]; other cores idle (and are a leakage
          liability unless the compiler gates them) *)
  | Parallel of {
      entries : string list;  (** entry function of each core, in order *)
      n_channels : int;
      n_barriers : int;
      chan_capacity : int;
    }

type t = {
  globals : global list;
  funcs : (string, func) Hashtbl.t;
  mutable layout : layout;
  mutable verified : int * layout * global list;
      (** the {!prog_version}, the layout and the globals that
          [Verify.verify_prog] last accepted; [(-1, Sequential, [])]
          until it accepts one *)
}

(* ------------------------------------------------------------------ *)
(* Functions                                                           *)
(* ------------------------------------------------------------------ *)

let create_func ~name ~params ~ret : func =
  let reg_gen = Lp_util.Id_gen.create () in
  let params = List.map (fun ty -> (Lp_util.Id_gen.fresh reg_gen, ty)) params in
  let block_gen = Lp_util.Id_gen.create () in
  let entry = Lp_util.Id_gen.fresh block_gen in
  let blocks = Hashtbl.create 16 in
  Hashtbl.replace blocks entry
    { Ir.bid = entry; instrs = []; term = Ir.Ret None };
  {
    fname = name;
    params;
    ret;
    entry;
    blocks;
    block_order = [ entry ];
    frame_arrays = [];
    version = 0;
    reg_gen;
    block_gen;
    instr_gen = Lp_util.Id_gen.create ();
  }

let block f l =
  match Hashtbl.find_opt f.blocks l with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Prog.block: no L%d in %s" l f.fname)

let new_reg f = Lp_util.Id_gen.fresh f.reg_gen

let new_block f : Ir.block =
  let bid = Lp_util.Id_gen.fresh f.block_gen in
  let b = { Ir.bid; instrs = []; term = Ir.Ret None } in
  Hashtbl.replace f.blocks bid b;
  f.block_order <- f.block_order @ [ bid ];
  touch f;
  b

let new_instr ?(loc = Ir.no_loc) f idesc : Ir.instr =
  { Ir.iid = Lp_util.Id_gen.fresh f.instr_gen; idesc; loc }

let add_frame_array f ~name ~ty ~len =
  f.frame_arrays <- f.frame_arrays @ [ (name, ty, len) ];
  touch f

(** Blocks in layout order. *)
let blocks_in_order f = List.map (block f) f.block_order

let iter_blocks f g = List.iter g (blocks_in_order f)

let iter_instrs f g =
  iter_blocks f (fun b -> List.iter (fun i -> g b i) b.Ir.instrs)

let fold_instrs f g acc =
  List.fold_left
    (fun acc b -> List.fold_left (fun acc i -> g acc b i) acc b.Ir.instrs)
    acc (blocks_in_order f)

let instr_count f = fold_instrs f (fun n _ _ -> n + 1) 0

(** Remove blocks not in [block_order] from the table (used after CFG
    simplification). *)
let prune_blocks f =
  let keep = List.sort_uniq compare f.block_order in
  Hashtbl.iter
    (fun l _ -> if not (List.mem l keep) then Hashtbl.remove f.blocks l)
    (Hashtbl.copy f.blocks);
  touch f

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

let create ~globals : t =
  { globals; funcs = Hashtbl.create 16; layout = Sequential;
    verified = (-1, Sequential, []) }

let add_func t f =
  if Hashtbl.mem t.funcs f.fname then
    invalid_arg ("Prog.add_func: duplicate " ^ f.fname);
  Hashtbl.replace t.funcs f.fname f

let find_func t name = Hashtbl.find_opt t.funcs name

let func_exn t name =
  match find_func t name with
  | Some f -> f
  | None -> invalid_arg ("Prog.func_exn: no function " ^ name)

let funcs t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.funcs []
  |> List.sort (fun a b -> compare a.fname b.fname)

let global t name = List.find_opt (fun g -> g.gsym = name) t.globals

let entries t =
  match t.layout with
  | Sequential -> [ "main" ]
  | Parallel { entries; _ } -> entries

let total_instrs t =
  List.fold_left (fun acc f -> acc + instr_count f) 0 (funcs t)

(** Program-wide mutation stamp: changes whenever any function is
    touched (or a function is added).  Program-level analyses (component
    use, static estimation, which follow calls across functions) are
    cached against this. *)
let prog_version t =
  Hashtbl.fold (fun _ f acc -> acc + f.version) t.funcs (Hashtbl.length t.funcs)

(** Whether [Verify.verify_prog] accepted [t] at [version] (its current
    {!prog_version}), with its current layout and globals: nothing
    removes a function, so these cover everything the verifier reads
    (the globals too in a copy [{ t with globals }], which keeps the
    record). *)
let verified t ~version =
  let (v, layout, globals) = t.verified in
  v = version && layout == t.layout && globals == t.globals

(** Exact content digest of everything the simulator reads from a
    program: the globals and the layout; per function, in name order,
    its signature, entry, frame arrays, register and label high-water
    marks; and every block of [blocks] by label (the verifier makes
    [block_order] list the same blocks), each instruction with its [loc]
    (the profiler keys on it).  Programs with equal digests simulate
    identically under the same machine and simulator options.  The
    digest is taken over a marshalled canonical value, so floats
    compare by their bits; the printed IR could not serve, since
    {!Ir.const_to_string} prints floats with [%g].  Gating sets enter
    as element lists, so equal sets of different tree shapes agree.
    Mutation stamps, instruction ids and the order of [block_order] are
    left out: the simulator reads none of them. *)
let digest (t : t) : Digest.t =
  let idesc = function
    | Ir.Pg_off s -> `Gate (false, Lp_power.Component.Set.elements s)
    | Ir.Pg_on s -> `Gate (true, Lp_power.Component.Set.elements s)
    | d -> `Instr d
  in
  let block l (b : Ir.block) =
    (l, b.Ir.bid, List.map (fun i -> (idesc i.Ir.idesc, i.Ir.loc)) b.Ir.instrs,
     b.Ir.term)
  in
  let func f =
    let blocks =
      Hashtbl.fold (fun l b acc -> block l b :: acc) f.blocks []
      |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
    in
    (f.fname, f.params, f.ret, f.entry, f.frame_arrays,
     Lp_util.Id_gen.peek f.reg_gen, Lp_util.Id_gen.peek f.block_gen, blocks)
  in
  Digest.string
    (Marshal.to_string
       (t.globals, t.layout, List.map func (funcs t))
       [ Marshal.No_sharing ])

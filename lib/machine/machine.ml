(** Embedded multicore machine descriptions.

    A machine is an array of {e core classes} — groups of identical
    cores, each class with its own set of gateable components' power
    model, its own DVFS ladder and a performance scale — connected by a
    shared bus to a tiered shared memory; each core also has a private
    local store (scratchpad or cache).  Inter-core communication uses
    hardware channels (mailbox/DMA style) whose cost is charged on the
    bus.

    Core ids are laid out class by class: class 0 owns cores
    [0 .. cc_count-1], the next class the following ids, and so on.
    Class 0 is the machine's reference clock — bus and memory latencies
    are nominal cycles of its power model. *)

module Component = Lp_power.Component
module Power_model = Lp_power.Power_model
module Operating_point = Lp_power.Operating_point

type core_class = {
  cc_name : string;
  cc_count : int;
  cc_power : Power_model.t;
  cc_perf_scale : float;
}

type mem_tier = {
  tier_latency_cycles : int;
  tier_energy_per_access_nj : float;
}

type local_store =
  | Scratchpad of { spm_latency_cycles : int }
  | Cache of {
      hit_latency_cycles : int;
      miss_penalty_cycles : int;
      miss_period : int;
      miss_energy_nj : float;
    }

type memory = {
  near : mem_tier;
  far : mem_tier option;
  far_threshold_words : int;
  local : local_store;
}

type t = {
  name : string;
  classes : core_class array;
  components : Component.t list;
  bus_latency_cycles : int;
  bus_word_cycles : int;
  bus_energy_per_word_nj : float;
  mem : memory;
  channel_setup_cycles : int;
}

let n_cores t =
  Array.fold_left (fun acc cc -> acc + cc.cc_count) 0 t.classes

let class_index_of_core t id =
  let rec go k first =
    if k >= Array.length t.classes then
      invalid_arg
        (Printf.sprintf "Machine.class_index_of_core: core %d of %d" id
           (n_cores t))
    else if id < first + t.classes.(k).cc_count then k
    else go (k + 1) (first + t.classes.(k).cc_count)
  in
  if id < 0 then
    invalid_arg (Printf.sprintf "Machine.class_index_of_core: core %d" id)
  else go 0 0

let class_of_core t id = t.classes.(class_index_of_core t id)
let power_of_core t id = (class_of_core t id).cc_power
let ref_power t = t.classes.(0).cc_power
let homogeneous t = Array.length t.classes = 1

let shared_mem_latency_cycles t = t.mem.near.tier_latency_cycles

let spm_latency_cycles t =
  match t.mem.local with
  | Scratchpad { spm_latency_cycles = l; _ } -> l
  | Cache { hit_latency_cycles = l; _ } -> l

let is_far t words =
  match t.mem.far with
  | Some _ -> words >= t.mem.far_threshold_words
  | None -> false

let validate t =
  if Array.length t.classes < 1 then
    invalid_arg "Machine: no core classes";
  Array.iter
    (fun cc ->
      if cc.cc_count < 1 then
        invalid_arg
          (Printf.sprintf "Machine: class %s is empty" cc.cc_name);
      if not (cc.cc_perf_scale > 0.0 && Float.is_finite cc.cc_perf_scale)
      then
        invalid_arg
          (Printf.sprintf "Machine: class %s has perf scale %g" cc.cc_name
             cc.cc_perf_scale);
      (* overlapping (duplicate) ladder levels would make a [dvfs l]
         instruction ambiguous on this class *)
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (p : Operating_point.t) ->
          let l = p.Operating_point.level in
          if Hashtbl.mem seen l then
            invalid_arg
              (Printf.sprintf
                 "Machine: class %s ladder has overlapping level %d"
                 cc.cc_name l);
          Hashtbl.replace seen l ())
        (Power_model.points cc.cc_power))
    t.classes;
  if t.components = [] then invalid_arg "Machine: no components";
  if not (List.mem Component.Alu t.components) then
    invalid_arg "Machine: cores must have an ALU";
  if t.mem.near.tier_latency_cycles < 0 then
    invalid_arg "Machine: negative near-tier latency";
  (match t.mem.far with
  | Some far ->
    if far.tier_latency_cycles < 0 then
      invalid_arg "Machine: negative far-tier latency";
    if t.mem.far_threshold_words < 1 then
      invalid_arg "Machine: far tier needs a positive size threshold"
  | None -> ());
  t

(* Memory subsystems of the classic machines: near tier reproducing the
   former flat shared memory (no per-access surcharge), no far tier,
   a 1-cycle scratchpad. *)
let classic_mem ?(near_latency = 12) ?(spm_latency = 1) () =
  {
    near =
      { tier_latency_cycles = near_latency; tier_energy_per_access_nj = 0.0 };
    far = None;
    far_threshold_words = 1024;
    local =
      Scratchpad { spm_latency_cycles = spm_latency };
  }

(** Generic embedded multicore with [n_cores] cores.  This is the machine
    used by the main evaluation; 4 cores by default. *)
let generic ?(name = "generic") ?(n_cores = 4) ?(power = Power_model.default ())
    () =
  if n_cores < 1 then invalid_arg "Machine: n_cores must be >= 1";
  validate
    {
      name = Printf.sprintf "%s-%dc" name n_cores;
      classes =
        [| { cc_name = "core"; cc_count = n_cores; cc_power = power;
             cc_perf_scale = 1.0 } |];
      components = Component.all;
      bus_latency_cycles = 8;
      bus_word_cycles = 2;
      bus_energy_per_word_nj = 0.5;
      mem = classic_mem ();
      channel_setup_cycles = 10;
    }

(** A PAC-Duo-flavoured configuration: 2 DSP cores, no FPU (floating point
    is done in fixed point on the MAC), slightly slower bus. *)
let pac_duo_like () =
  validate
    {
      name = "pacduo-2c";
      classes =
        [| { cc_name = "dsp"; cc_count = 2;
             cc_power = Power_model.default ~n_levels:4 ();
             cc_perf_scale = 1.0 } |];
      components =
        [ Component.Alu; Component.Multiplier; Component.Divider;
          Component.Mac; Component.Shifter; Component.Load_store;
          Component.Branch_unit ];
      bus_latency_cycles = 10;
      bus_word_cycles = 3;
      bus_energy_per_word_nj = 0.6;
      mem = classic_mem ~near_latency:16 ();
      channel_setup_cycles = 12;
    }

(** Cluster of 8 small cores on a leakage-heavy node, for the sensitivity
    experiments. *)
let octa_leaky () =
  validate
    {
      (generic ~name:"octa-leaky" ~n_cores:8 ~power:(Power_model.leaky ()) ()) with
      bus_latency_cycles = 12;
    }

(** big.LITTLE pair: 4 reference cores and 4 in-order efficiency cores.
    The little class runs its own slower, lower-voltage ladder and needs
    1.5 cycles per reference cycle of work. *)
let biglittle () =
  validate
    {
      name = "biglittle-4+4";
      classes =
        [| { cc_name = "big"; cc_count = 4;
             cc_power = Power_model.default ();
             cc_perf_scale = 1.0 };
           { cc_name = "little"; cc_count = 4;
             cc_power = Power_model.little ();
             cc_perf_scale = 1.5 } |];
      components = Component.all;
      bus_latency_cycles = 8;
      bus_word_cycles = 2;
      bus_energy_per_word_nj = 0.5;
      mem = classic_mem ();
      channel_setup_cycles = 10;
    }

(** Tiered-memory machine: 4 generic cores whose big shared arrays
    (>= 1024 words) live in a far pool with extra latency and a real
    per-access energy — CXL-flavoured capacity memory.  The local store
    is a small cache rather than a scratchpad: every 64th local access
    pays a deterministic miss. *)
let farmem () =
  validate
    {
      name = "farmem-4c";
      classes =
        [| { cc_name = "core"; cc_count = 4;
             cc_power = Power_model.default ();
             cc_perf_scale = 1.0 } |];
      components = Component.all;
      bus_latency_cycles = 8;
      bus_word_cycles = 2;
      bus_energy_per_word_nj = 0.5;
      mem =
        {
          near =
            { tier_latency_cycles = 12; tier_energy_per_access_nj = 0.0 };
          far =
            Some
              { tier_latency_cycles = 48; tier_energy_per_access_nj = 1.5 };
          far_threshold_words = 1024;
          local =
            Cache
              { hit_latency_cycles = 1; miss_penalty_cycles = 18;
                miss_period = 64; miss_energy_nj = 0.8 };
        };
      channel_setup_cycles = 10;
    }

let with_cores t n =
  if Array.length t.classes <> 1 then
    invalid_arg "Machine.with_cores: heterogeneous machine";
  validate
    {
      t with
      classes = [| { t.classes.(0) with cc_count = n } |];
      name = Printf.sprintf "%s@%dc" t.name n;
    }

let has_component t c = List.mem c t.components

let clamp_cores ?(warn = true) t requested =
  let avail = n_cores t in
  if requested > avail then begin
    if warn then
      Printf.eprintf
        "warning: machine %s has %d cores; clamping requested %d\n%!" t.name
        avail requested;
    avail
  end
  else requested

let registry :
    (string * string * (?cores:int -> unit -> t)) list =
  [
    ( "generic", "generic embedded multicore (default 4 cores)",
      fun ?(cores = 4) () -> generic ~n_cores:(max cores 4) () );
    ( "pacduo", "PAC-Duo-flavoured 2-core DSP: no FPU, slower bus",
      fun ?cores:_ () -> pac_duo_like () );
    ( "octa-leaky", "8 cores on a leakage-heavy node (3x leakage)",
      fun ?cores:_ () -> octa_leaky () );
    ( "biglittle", "4 big + 4 little cores with distinct DVFS ladders",
      fun ?cores:_ () -> biglittle () );
    ( "farmem", "4 cores with near/far tiered shared memory and a cache",
      fun ?cores:_ () -> farmem () );
  ]

let names = List.map (fun (n, _, _) -> n) registry

let of_name ?cores name =
  let name = if name = "octa" then "octa-leaky" else name in
  List.find_map
    (fun (n, _, mk) -> if n = name then Some (mk ?cores ()) else None)
    registry

let pp fmt t =
  Format.fprintf fmt "%s: %d cores, %d components@\n" t.name (n_cores t)
    (List.length t.components);
  Array.iter
    (fun cc ->
      Format.fprintf fmt "  class %-7s x%d  perf x%.2f  ladder %s@\n"
        cc.cc_name cc.cc_count cc.cc_perf_scale
        (Power_model.describe_ladder cc.cc_power))
    t.classes;
  (match t.mem.local with
  | Scratchpad { spm_latency_cycles } ->
    Format.fprintf fmt "  local: scratchpad %dcy@\n" spm_latency_cycles
  | Cache { hit_latency_cycles; miss_penalty_cycles; miss_period;
            miss_energy_nj } ->
    Format.fprintf fmt
      "  local: cache hit %dcy, miss +%dcy/%.2fnJ every %d accesses@\n"
      hit_latency_cycles miss_penalty_cycles miss_energy_nj miss_period);
  Format.fprintf fmt "  shared: near +%dcy/%.2fnJ" t.mem.near.tier_latency_cycles
    t.mem.near.tier_energy_per_access_nj;
  (match t.mem.far with
  | Some far ->
    Format.fprintf fmt ", far +%dcy/%.2fnJ for arrays >= %d words"
      far.tier_latency_cycles far.tier_energy_per_access_nj
      t.mem.far_threshold_words
  | None -> ());
  Format.fprintf fmt "@\n  bus: %d+%d/word cy, %.2f nJ/word; channel setup %d cy"
    t.bus_latency_cycles t.bus_word_cycles t.bus_energy_per_word_nj
    t.channel_setup_cycles

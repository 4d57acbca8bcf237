(** Embedded multicore machine descriptions: one or more {e core
    classes} (each with its own power model, DVFS ladder and performance
    scale), per-component power gating, a shared bus to a tiered shared
    memory, per-core local stores (scratchpad or cache), and dedicated
    inter-core mailbox links. *)

module Component = Lp_power.Component
module Power_model = Lp_power.Power_model

(** A group of identical cores.  Core ids are laid out class by class:
    class 0 owns cores [0 .. cc_count-1], class 1 the next ids, and so
    on — the order of [classes] therefore decides which cores receive
    the program's entry functions first. *)
type core_class = {
  cc_name : string;              (** e.g. ["core"], ["big"], ["little"] *)
  cc_count : int;
  cc_power : Power_model.t;      (** power model and DVFS ladder *)
  cc_perf_scale : float;
      (** cycles this class needs per reference cycle of work (1.0 =
          reference pipeline; an in-order little core is > 1.0) *)
}

(** One shared-memory tier behind the bus. *)
type mem_tier = {
  tier_latency_cycles : int;     (** array access beyond the bus *)
  tier_energy_per_access_nj : float;
      (** charged per access on top of the bus word energy *)
}

(** Per-core local store.  A scratchpad is software-managed with an
    explicit DMA engine (block transfers pay setup once, then stream);
    only the machine listing reads the DMA costs, nothing charges them.
    A cache hits at a fixed latency and pays a deterministic periodic
    miss penalty (a first-order stand-in for a real miss stream). *)
type local_store =
  | Scratchpad of {
      spm_latency_cycles : int;
      dma_setup_cycles : int;    (** per DMA block transfer *)
      dma_word_cycles : int;     (** per word streamed by the DMA *)
    }
  | Cache of {
      hit_latency_cycles : int;
      miss_penalty_cycles : int;
      miss_period : int;         (** every [miss_period]-th access misses *)
      miss_energy_nj : float;
    }

(** The memory subsystem: every shared symbol lives in the near tier
    unless it is at least [far_threshold_words] words long and a far
    tier exists, in which case it is placed far (capacity pressure:
    only big arrays spill to the far/slow pool). *)
type memory = {
  near : mem_tier;
  far : mem_tier option;
  far_threshold_words : int;
  local : local_store;
}

type t = {
  name : string;
  classes : core_class array;       (** non-empty; see {!core_class} *)
  components : Component.t list;    (** components present in each core *)
  bus_latency_cycles : int;         (** base bus transaction latency *)
  bus_word_cycles : int;            (** additional cycles per word *)
  bus_energy_per_word_nj : float;
  mem : memory;
  channel_setup_cycles : int;       (** per send/recv handshake *)
}

(** Total cores across all classes. *)
val n_cores : t -> int

(** Class index owning core [id]; raises [Invalid_argument] when out of
    range. *)
val class_index_of_core : t -> int -> int

val class_of_core : t -> int -> core_class
val power_of_core : t -> int -> Power_model.t

(** Power model of class 0 — the machine's reference clock: bus and
    shared-memory latencies are expressed in nominal cycles of this
    model.  On a single-class machine this is {e the} power model. *)
val ref_power : t -> Power_model.t

(** Exactly one core class. *)
val homogeneous : t -> bool

(** Near-tier shared-memory latency (what a shared access beyond the
    bus costs, before any far-tier surcharge). *)
val shared_mem_latency_cycles : t -> int

(** Local-store access latency (scratchpad latency / cache hit). *)
val spm_latency_cycles : t -> int

(** True when an allocation of [words] words lives in the far tier. *)
val is_far : t -> int -> bool

(** Raises [Invalid_argument] on inconsistent descriptions (no classes,
    empty class, no ALU, duplicate/overlapping ladder levels, bad perf
    scale, bad memory tiers); all constructors below validate. *)
val validate : t -> t

(** Generic embedded multicore (default 4 cores), used by the main
    evaluation.  Single class named ["core"]. *)
val generic : ?name:string -> ?n_cores:int -> ?power:Power_model.t -> unit -> t

(** PAC-Duo-flavoured 2-core DSP: no FPU, slower bus. *)
val pac_duo_like : unit -> t

(** 8 cores on a leakage-heavy node (3x leakage). *)
val octa_leaky : unit -> t

(** big.LITTLE pair: 4 reference cores plus 4 in-order efficiency cores
    with their own (slower, lower-voltage) DVFS ladder. *)
val biglittle : unit -> t

(** Tiered-memory 4-core machine: shared arrays of at least 1024 words
    spill to a far tier with extra latency and per-access energy. *)
val farmem : unit -> t

(** Resize a single-class machine; raises [Invalid_argument] on
    heterogeneous machines (resizing would have to pick a class). *)
val with_cores : t -> int -> t

val has_component : t -> Component.t -> bool

(** Clamp a requested core count to what the machine offers, warning on
    stderr when the clamp actually fires ([warn:false] silences it). *)
val clamp_cores : ?warn:bool -> t -> int -> int

(** The machine zoo: CLI name, one-line description, constructor.  The
    constructor's [cores] hint only affects machines that scale (the
    generic one); fixed-shape machines ignore it. *)
val registry : (string * string * (?cores:int -> unit -> t)) list

(** CLI names of every zoo machine, in registry order. *)
val names : string list

(** Look a machine up by zoo name ([of_name "pacduo"]); [None] for
    unknown names so callers keep their own stable errors.  Accepts the
    alias ["octa"] for ["octa-leaky"]. *)
val of_name : ?cores:int -> string -> t option

(** Multi-line description: classes, ladders, memory tiers, bus. *)
val pp : Format.formatter -> t -> unit

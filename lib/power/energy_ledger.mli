(** Energy accounting (nanojoules), broken down by spending category and
    by datapath component. *)

type category =
  | Dynamic          (** executing instructions *)
  | Leakage_active   (** leakage while the core executes *)
  | Leakage_idle     (** leakage while blocked / after halting *)
  | Gating_overhead  (** pg_on / pg_off transition energy *)
  | Dvfs_overhead    (** DVFS transition energy *)
  | Communication    (** bus transfers, channel operations *)

val all_categories : category list
val category_to_string : category -> string

type t

val create : unit -> t

(** Add [nj] nanojoules under [category] (and optionally attributed to a
    component).  Raises [Invalid_argument] on negative energy. *)
val charge : t -> category:category -> ?component:Component.t -> float -> unit

(** Raw accumulator cells for the simulator's per-instruction hot
    path.  [raw_by_category] is the category axis at fixed indices
    (dynamic=0, leak-active=1, leak-idle=2, gating=3, dvfs=4, comm=5),
    [raw_by_component] the component axis indexed by
    [Component.index], and [raw_total] a one-element cell holding the
    running total.  Adding [nj >= 0] to the matching category cell
    (plus the component cell for attributed charges) and to the total,
    in that order, is exactly {!charge}; the simulator hand-inlines
    that because a per-instruction cross-module call with a float
    argument boxes the float (no flambda).  Call {!negative_energy} in
    place of a negative add so the error is the same as {!charge}'s. *)

val raw_by_category : t -> float array
val raw_by_component : t -> float array
val raw_total : t -> float array

(** The index of a category on the {!raw_by_category} axis. *)
val category_index : category -> int

(** Raises the [Invalid_argument] that {!charge} raises on negative
    energy. *)
val negative_energy : unit -> 'a

val total : t -> float
val of_category : t -> category -> float
val of_component : t -> Component.t -> float

(** Accumulate [src] into [dst] (used to aggregate per-core ledgers). *)
val merge_into : dst:t -> src:t -> unit

(** All categories with their totals, in [all_categories] order. *)
val breakdown : t -> (category * float) list

(** All components with their attributed totals, in [Component.all]
    order.  Core-level charges (idle leakage, bus transfers, transition
    overheads) carry no component and are absent from this axis. *)
val component_breakdown : t -> (Component.t * float) list

(** One line: total, then the non-zero categories in [[...]] and the
    non-zero per-component attributions in [{...}]. *)
val pp : Format.formatter -> t -> unit

(** Machine-readable dump ([total_nj], [by_category], [by_component]);
    every category and component is present even when zero, so the
    schema is stable (documented in docs/POWER_MODEL.md). *)
val to_json : t -> Lp_util.Json.t

(** Metadata produced by the parallelizer and consumed by the
    pattern-aware power passes (per-core gating, pipeline balancing). *)

module Pattern = Lp_patterns.Pattern

type instance_codegen = {
  inst : Pattern.instance;
  tag : int;                  (** dispatch tag sent on work channels; > 0 *)
  body_func : string option;  (** outlined slice function (doall/red/farm) *)
  stage_funcs : string list;  (** pipeline stage functions, stage 0 first *)
  done_chan : int;
  token_chans : int list;     (** pipeline inter-stage token channels *)
  counter_global : string option;  (** farm self-scheduling counter *)
}

type t = {
  n_workers : int;            (** worker cores (total cores = workers + 1) *)
  entries : string list;      (** entry function per core, master first *)
  n_channels : int;
  n_barriers : int;
  chan_capacity : int;
  instances : instance_codegen list;
}

let sequential = {
  n_workers = 0;
  entries = [ "main" ];
  n_channels = 0;
  n_barriers = 0;
  chan_capacity = 0;
  instances = [];
}

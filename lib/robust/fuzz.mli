(** Pipeline fuzzer: drives generated MiniC programs (see {!Gen})
    through the whole compile+simulate pipeline and checks three
    robustness properties:

    - the pipeline never lets a raw exception escape: every failure is a
      structured {!Lp_util.Diag.t} (the [*_result] entry points);
    - the IR verifier holds after every optimisation pass
      ([verify_each]);
    - the baseline and the fully-optimised configuration, parallelised
      over every core of the fuzzed machine, produce the same
      observable result (return value and the final contents of the
      output arrays).

    A batch fuzzes each seed on every zoo machine ([Machine.registry]),
    at the machine's own core count.  Failing seeds are written to a
    crash corpus directory as replayable MiniC files with the seed, the
    machine and the failure reason in a comment header. *)

type finding = {
  f_seed : int;
  f_machine : string;  (** the fuzzed machine's [Machine.name] *)
  f_kind : string;
      (** [raw-exception], [result-mismatch], [diag-divergence] or
          [config-divergence] *)
  f_detail : string;
  f_source : string;
}

type summary = {
  tested : int;  (** seeds times machines *)
  passed : int;   (** both configurations ran and agreed *)
  degraded : int;
      (** both configurations failed with the same diagnostic code —
          graceful and consistent, so not a finding *)
  findings : finding list;  (** in seed order *)
}

(** Fuzz one seed; [Ok] is [`Passed] or [`Degraded of code].  With an
    enabled recorder in [ctx], each seed runs under a [fuzz] span with
    the two configuration compiles nested inside. *)
val run_seed :
  ?ctx:Lowpower.Compile.ctx ->
  ?machine:Lp_machine.Machine.t ->
  seed:int ->
  unit ->
  ([ `Passed | `Degraded of string ], finding) result

(** Fuzz [seeds] consecutive seeds starting at [seed_start], each on
    every zoo machine at its own core count, or on [machine] alone when
    it is given, writing any finding to [corpus_dir] (created on demand;
    no file is written when every seed passes).  Each finding is saved
    as [seed_N_MACHINE.c] alongside a [seed_N_MACHINE.report.json]
    power-decision audit of the failing full-config run, and the replay
    header's [// report:] line points at it.  [log] receives one
    progress line per failure and a final tally. *)
val run_range :
  ?ctx:Lowpower.Compile.ctx ->
  ?machine:Lp_machine.Machine.t ->
  ?log:(string -> unit) ->
  corpus_dir:string ->
  seed_start:int ->
  seeds:int ->
  unit ->
  summary

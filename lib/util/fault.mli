(** Deterministic fault injection.

    A fault spec arms named injection points spread through the pipeline;
    when an armed point is reached, it raises a structured
    {!Diag.Error} (never a raw exception).  Without a spec every check
    compiles down to one branch on an empty list, so production runs pay
    nothing.

    Spec grammar (also in docs/ROBUSTNESS.md):

    {v
    spec   := clause (',' clause)*
    clause := 'seed=' INT
            | point [ '@' SUBSTR ] [ '*' COUNT ] [ '%' PCT ]
    point  := 'post-pass' | 'pre-simulate' | 'worker' | 'sim-bus'
            | 'serve-accept' | 'serve-decode' | 'serve-dispatch'
    v}

    - [@SUBSTR] restricts the clause to checks whose full key
      (["<scope>/<key>"], scope being the workload name set by
      {!with_scope}) contains [SUBSTR];
    - [*COUNT] fires the clause at most [COUNT] times, after which the
      point passes — a retry deterministically recovers, so the
      resulting diagnostics are marked transient;
    - [%PCT] fires with the given percent probability drawn from the
      spec's seeded {!Rng} (default seed 1; override with [seed=N]).

    Example: [LP_FAULTS='post-pass@fir'] crashes every compile of the
    [fir] workload after the first optimisation pass;
    [LP_FAULTS='pre-simulate@matmul*2'] fails the first two simulation
    attempts of [matmul] and then recovers. *)

type point =
  | Post_pass     (** after each optimisation pass ([Pass.run_pass]) *)
  | Pre_simulate  (** entry of [Sim.run] *)
  | Worker        (** inside a domain-pool evaluation-matrix worker *)
  | Sim_bus       (** transient bus/memory fault inside [Sim] bus access *)
  | Serve_accept  (** [lpccd] connection accept path *)
  | Serve_decode  (** [lpccd] request-frame decode path *)
  | Serve_dispatch  (** [lpccd] request dispatch onto the worker queue *)

val point_name : point -> string

(** Error codes the four points raise with. *)
val code_of_point : point -> string

(** Parse and install a fault spec, replacing the current one.  The empty
    string clears.  [Error msg] on a malformed spec.  Entry points call
    this with the resolved [Runtime_config.faults] (where [--faults] and
    [LP_FAULTS] land); libraries never read the environment. *)
val configure : string -> (unit, string) result

(** Drop all armed clauses. *)
val clear : unit -> unit

(** Whether any clause is armed. *)
val active : unit -> bool

(** [with_scope name f] runs [f] with the ambient key prefix set to
    [name] (per-domain, so pool workers don't race). *)
val with_scope : string -> (unit -> 'a) -> 'a

(** Reach an injection point.  Raises [Diag.Error] when an armed clause
    matches; otherwise returns.  Either way every armed clause of
    [point] is marked reached, whether or not its [@SUBSTR] matched or
    its [%PCT] draw fired.  Thread-safe. *)
val check : point -> key:string -> unit

(** The armed clauses, as written in the spec, whose point no {!check}
    has reached since {!configure}: a clause no code path reaches
    injects nothing, so a run that armed it tested nothing. *)
val unreached : unit -> string list

(** Fixed-size pool of worker domains for embarrassingly parallel work.

    The evaluation matrix (workload x config x machine) and the benchmark
    harness fan independent compile+simulate jobs out over this pool.
    Results keep the input order, and the first (lowest-index) exception
    raised by a job is re-raised on the caller once the batch has drained,
    so callers observe the same behaviour as [List.map] modulo wall-clock.

    Pool size resolution, in priority order: an explicit [set_default_jobs]
    override (entry points call it with [Runtime_config.jobs], which is
    where [--jobs] and [LP_JOBS] land), and finally
    [Domain.recommended_domain_count () - 1] (min 1).  A pool
    of size 1 spawns no domains and degrades to plain [List.map]/[List.iter],
    so single-core CI boxes take the sequential path untouched.

    Jobs must not submit work back into the pool they run on: every worker
    waiting on a nested batch would deadlock the pool. *)

type t

(** [create ~jobs ()] spawns [max 1 jobs] worker domains ([jobs <= 1]
    spawns none, so batch calls degrade to the caller's domain). *)
val create : jobs:int -> unit -> t

(** Number of worker slots (>= 1). *)
val jobs : t -> int

(** Join the workers; the pool accepts no further batches. *)
val shutdown : t -> unit

(** The pool size the next [default] pool will use. *)
val default_jobs : unit -> int

(** Override the default pool size (clamped to >= 1); entry points call
    this with the resolved [Runtime_config.jobs].  An existing default
    pool of a different size is shut down and replaced on the next
    use. *)
val set_default_jobs : int -> unit

(** The shared lazily-created default pool. *)
val default : unit -> t

(** [parallel_map ?pool f xs] maps [f] over [xs] on the pool (default:
    [default ()]), preserving order; each element is one task.  The
    first failure by input index is re-raised with its backtrace after
    all tasks finish. *)
val parallel_map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list

(** [parallel_iter] is [parallel_map] for effects only. *)
val parallel_iter : ?pool:t -> ('a -> unit) -> 'a list -> unit

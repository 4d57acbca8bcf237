(** Monotonic clock abstraction for the telemetry layer.

    Every timestamp the observability layer records flows through one
    [t]: a function returning nanoseconds since an arbitrary origin.
    Production code uses {!monotonic}; tests inject {!fixed_step} so
    span durations — and therefore the exported Chrome trace JSON — are
    bit-for-bit reproducible. *)

(** A clock: nanoseconds since an arbitrary (per-clock) origin. *)
type t = unit -> float

(** The best monotonic-ish source available without C stubs:
    [Unix.gettimeofday], rebased so the first reading of the process is
    near zero.  Resolution is microseconds; good enough to attribute
    wall-clock to compiler phases and matrix cells. *)
val monotonic : t

(** [fixed_step ~step_ns ()] returns a deterministic clock whose n-th
    reading (from 0) is [n * step_ns].  For golden tests. *)
val fixed_step : step_ns:float -> unit -> t

(** Deterministic bounded exponential backoff and the one retry loop
    built on it, shared by every retry path in the repository (the
    evaluation matrix's per-cell retry and the compile server's
    transient-fault retries): 4 ms, 8 ms, 16 ms, ... capped at 50 ms.
    Real enough to space retries, small enough for tests.  Pure: the
    same attempt number always yields the same delay. *)

(** Delay in seconds before retry number [attempt] (1-based: the delay
    after the first failed attempt is [backoff_s 1] = 4 ms). *)
val backoff_s : int -> float

(** The cap every delay saturates at (50 ms). *)
val cap_s : float

(** [retry ~retries ?on_retry f] calls [f] again while it returns a
    transient diagnostic, up to [retries] times, calling [on_retry] and
    sleeping {!backoff_s} before each retry.  Returns the last result
    and the number of attempts made (1 to [retries + 1]). *)
val retry :
  retries:int ->
  ?on_retry:(unit -> unit) ->
  (unit -> ('a, Diag.t) result) ->
  ('a, Diag.t) result * int

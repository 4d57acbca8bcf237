(** Bounded warm cache shared across server requests.

    Keys are digests of the full compile signature (source, machine,
    cores, config, passes); values are whatever the server memoises
    (compiled programs and their [run] replies).  Least-recently-used
    eviction keeps the footprint bounded: a {!find} hit or an {!add}
    makes its key the most recent, so one-shot keys cannot push out a
    hot set that fits.  Every operation is O(1).  Thread-safe: every
    operation takes the cache's lock, so worker domains share it
    freely.

    Crash isolation: a request that dies mid-compile never poisons the
    cache because failures are never inserted — the server only [add]s
    after a fully verified result, and {!remove} invalidates exactly the
    touched program when a crash makes its entry suspect. *)

type 'a t

val create : capacity:int -> 'a t

(** Look up; counts a hit or a miss.  A hit makes the key the most
    recently used. *)
val find : 'a t -> string -> 'a option

(** Insert (replacing any previous value) as the most recently used
    key; evicts the least recently used entry when over capacity. *)
val add : 'a t -> string -> 'a -> unit

(** Invalidate one key (no-op when absent); counts an invalidation. *)
val remove : 'a t -> string -> unit

val length : 'a t -> int
val hits : 'a t -> int
val misses : 'a t -> int
val invalidations : 'a t -> int

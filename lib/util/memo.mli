(** The one memo: a thread-safe table of computed values with
    least-recently-used eviction.

    Its instances are the evaluation matrix's cells (keyed by workload,
    config and machine name, failures included, never evicted) and
    lpccd's warm compile cache (keyed by request, bounded).

    A {!find} hit or an {!add} makes its key the most recently used, so
    one-shot keys cannot push out a hot set that fits; [~capacity:max_int]
    never evicts.  Every operation but {!fold} is O(1).  Every operation
    takes the memo's lock, so worker domains share it freely.  Keys are
    compared with structural equality and hashed with [Hashtbl.hash].

    Callers decide what goes in: lpccd never [add]s a value that an
    armed fault spec could have changed, and {!remove}s a compile whose
    request crashed. *)

type ('k, 'v) t

(** A memo holding at most [capacity] entries (at least 1). *)
val create : capacity:int -> ('k, 'v) t

(** Look up; counts a hit or a miss.  A hit makes the key the most
    recently used. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** Insert (replacing any previous value) as the most recently used
    key; evicts the least recently used entry when over capacity. *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

(** Invalidate one key (no-op when absent); counts an invalidation. *)
val remove : ('k, 'v) t -> 'k -> unit

(** Drop every entry.  The counters keep counting. *)
val clear : ('k, 'v) t -> unit

(** [fold f t acc] folds [f] over every entry, in no particular order,
    under the memo's lock: [f] must not use [t]. *)
val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc

val length : ('k, 'v) t -> int
val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
val invalidations : ('k, 'v) t -> int

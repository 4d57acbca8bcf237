(** Cooperative deadlines and cancellation.

    A [t] is a cancellation token created at a request's entry point and
    threaded (via [Lowpower.Compile.ctx]) through the long-running loops
    of the pipeline: the pass fixpoint and the simulator scheduler both
    call {!check} periodically.  When the token's wall-clock deadline has
    passed — or another domain {!cancel}led it (the compile server's
    drain) — the next {!check} raises a structured {!Diag.Error} with
    the stable code {!code} ([E_DEADLINE]), which the usual [*_result]
    entry points return as a diagnostic.

    Cancellation is cooperative: nothing is interrupted mid-instruction,
    the worked-on program is simply abandoned at the next check point, so
    shared state (caches, pools) is never left mid-mutation.

    {!check} is engineered for hot loops: on {!none} it is one physical
    equality test, and on a live token it reads the clock only every few
    dozen calls (an [Atomic] cancellation flag is still read every call,
    so a {!cancel} lands promptly). *)

type t

(** The no-deadline token: {!check} returns immediately, {!cancel} is
    ignored.  The default everywhere a token is optional. *)
val none : t

(** [after_ms ms] starts a token expiring [ms] milliseconds from now
    ([ms <= 0] is already expired).  Each token is meant to be checked by
    one domain at a time; {!cancel}/{!cancelled} may be called from any
    domain. *)
val after_ms : int -> t

(** Cancel from outside (the compile server's drain): the owning
    domain's next {!check} raises. *)
val cancel : t -> unit

(** Whether {!cancel} was called. *)
val cancelled : t -> bool

(** Non-raising probe: cancelled, or past the deadline (reads the
    clock unconditionally — not for hot loops). *)
val expired : t -> bool

(** Raise [Diag.Error] (stage [Driver], code [E_DEADLINE]) if the token
    is cancelled or past its deadline; otherwise return.  Paced: the
    clock is consulted once per {!fuel_budget} calls. *)
val check : t -> unit

(** The stable diagnostic code {!check} raises with. *)
val code : string

(** Calls between clock reads in {!check} (exposed for tests). *)
val fuel_budget : int

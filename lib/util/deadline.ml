(** Cooperative deadlines and cancellation (see the interface).  The
    clock is [Unix.gettimeofday]: wall time, because a deadline is a
    service-level promise to a caller, not a CPU budget. *)

type t = {
  limit_s : float;  (** absolute [gettimeofday] seconds; [infinity] = none *)
  cancelled : bool Atomic.t;
  mutable fuel : int;
      (** calls until the next clock read; owned by the checking domain *)
}

let code = "E_DEADLINE"

let fuel_budget = 32

let none = { limit_s = Float.infinity; cancelled = Atomic.make false; fuel = 0 }

let after_ms ms =
  {
    limit_s = Unix.gettimeofday () +. (float_of_int ms /. 1e3);
    cancelled = Atomic.make false;
    fuel = 0;
  }

let cancel t = if t != none then Atomic.set t.cancelled true

let cancelled t = Atomic.get t.cancelled

let past_limit t = Unix.gettimeofday () >= t.limit_s

let expired t = t != none && (cancelled t || past_limit t)

let fail t =
  if cancelled t then Diag.error Diag.Driver ~code "request cancelled"
  else Diag.error Diag.Driver ~code "deadline exceeded"

let check t =
  if t != none then begin
    if Atomic.get t.cancelled then fail t;
    t.fuel <- t.fuel - 1;
    if t.fuel <= 0 then begin
      t.fuel <- fuel_budget;
      if past_limit t then fail t
    end
  end

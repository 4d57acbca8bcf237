(** Monotonic integer id generator.  Each compiler entity family (virtual
    registers, basic blocks, tasks, channels) owns its own generator so ids
    stay small and stable per compilation unit. *)

type t = { mutable next : int }

let create () = { next = 0 }

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let peek t = t.next

let reset t = t.next <- 0

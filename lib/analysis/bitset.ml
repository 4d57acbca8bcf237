(** Sets of small non-negative integers (virtual registers) as bit
    vectors, one [int] word per {!bits} members.

    Trailing zero words are insignificant: sets of different capacities
    compare and combine as if zero-extended, so {!empty} is a valid
    bottom whatever the register count.  The functional operations
    ({!add}, {!union}, {!transfer}) never mutate their arguments; {!set}
    and {!clear} mutate in place and need the member within capacity,
    which {!create} sizes from the function's register generator. *)

type t = int array

let bits = Sys.int_size

let empty : t = [||]

(** An empty set able to hold [0 .. n-1] in place. *)
let create n : t = Array.make ((n + bits - 1) / bits) 0

let mem i (s : t) =
  let w = i / bits in
  w < Array.length s && (s.(w) lsr (i mod bits)) land 1 = 1

(** In place; [i] must be within capacity. *)
let set (s : t) i =
  let w = i / bits in
  s.(w) <- s.(w) lor (1 lsl (i mod bits))

(** In place; a member beyond capacity is already absent. *)
let clear (s : t) i =
  let w = i / bits in
  if w < Array.length s then s.(w) <- s.(w) land lnot (1 lsl (i mod bits))

(** [s] grown (copied) to hold at least [n] members. *)
let extend (s : t) n : t =
  let words = (n + bits - 1) / bits in
  if words <= Array.length s then Array.copy s
  else begin
    let s' = Array.make words 0 in
    Array.blit s 0 s' 0 (Array.length s);
    s'
  end

let add i (s : t) : t =
  let s' = extend s (i + 1) in
  set s' i;
  s'

let word (s : t) w = if w < Array.length s then Array.unsafe_get s w else 0

let equal (a : t) (b : t) =
  a == b
  ||
  let n = max (Array.length a) (Array.length b) in
  let rec go w = w >= n || (word a w = word b w && go (w + 1)) in
  go 0

let union (a : t) (b : t) : t =
  if Array.length b = 0 then a
  else if Array.length a = 0 then b
  else Array.init (max (Array.length a) (Array.length b)) (fun w -> word a w lor word b w)

(** [use ∪ (out \ def)]: a backward liveness transfer in one allocation. *)
let transfer ~(use : t) ~(def : t) (out : t) : t =
  Array.init
    (max (Array.length use) (Array.length out))
    (fun w -> word use w lor (word out w land lnot (word def w)))

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

let cardinal (s : t) = Array.fold_left (fun acc x -> acc + popcount x) 0 s

(** Members in increasing order. *)
let elements (s : t) : int list =
  let acc = ref [] in
  for w = Array.length s - 1 downto 0 do
    let x = s.(w) in
    if x <> 0 then
      for b = bits - 1 downto 0 do
        if (x lsr b) land 1 = 1 then acc := ((w * bits) + b) :: !acc
      done
  done;
  !acc

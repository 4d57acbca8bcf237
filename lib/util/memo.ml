(** The one memo, least-recently-used eviction (see the interface).

    Entries sit on a doubly linked recency list, most recently used
    first; the table maps each key to its node, so [find], [add] and
    [remove] are O(1) and eviction drops the list's last node. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable newer : ('k, 'v) node option;
  mutable older : ('k, 'v) node option;
}

type ('k, 'v) t = {
  mutex : Mutex.t;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable newest : ('k, 'v) node option;
  mutable oldest : ('k, 'v) node option;  (** the next to be evicted *)
  capacity : int;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable invalidation_count : int;
}

let create ~capacity =
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    newest = None;
    oldest = None;
    capacity = max 1 capacity;
    hit_count = 0;
    miss_count = 0;
    invalidation_count = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let unlink t n =
  (match n.newer with Some m -> m.older <- n.older | None -> t.newest <- n.older);
  (match n.older with Some m -> m.newer <- n.newer | None -> t.oldest <- n.newer);
  n.newer <- None;
  n.older <- None

let push_newest t n =
  n.older <- t.newest;
  (match t.newest with Some m -> m.newer <- Some n | None -> t.oldest <- Some n);
  t.newest <- Some n

let touch t n =
  unlink t n;
  push_newest t n

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some n ->
        t.hit_count <- t.hit_count + 1;
        touch t n;
        Some n.value
      | None ->
        t.miss_count <- t.miss_count + 1;
        None)

let add t key v =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some n ->
        n.value <- v;
        touch t n
      | None ->
        let n = { key; value = v; newer = None; older = None } in
        Hashtbl.replace t.table key n;
        push_newest t n;
        if Hashtbl.length t.table > t.capacity then
          Option.iter
            (fun lru ->
              unlink t lru;
              Hashtbl.remove t.table lru.key)
            t.oldest)

let remove t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some n ->
        unlink t n;
        Hashtbl.remove t.table key;
        t.invalidation_count <- t.invalidation_count + 1
      | None -> ())

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.newest <- None;
      t.oldest <- None)

let fold f t acc =
  locked t (fun () -> Hashtbl.fold (fun k n acc -> f k n.value acc) t.table acc)

let length t = locked t (fun () -> Hashtbl.length t.table)
let hits t = locked t (fun () -> t.hit_count)
let misses t = locked t (fun () -> t.miss_count)
let invalidations t = locked t (fun () -> t.invalidation_count)

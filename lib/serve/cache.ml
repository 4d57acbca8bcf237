(** Bounded LRU-eviction cache (see the interface).

    Entries sit on a doubly linked recency list, most recently used
    first; the table maps each key to its node, so [find], [add] and
    [remove] are O(1) and eviction drops the list's last node. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable newer : 'a node option;
  mutable older : 'a node option;
}

type 'a t = {
  mutex : Mutex.t;
  table : (string, 'a node) Hashtbl.t;
  mutable newest : 'a node option;
  mutable oldest : 'a node option;  (** the next to be evicted *)
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

let length t = locked t (fun () -> Hashtbl.length t.table)
let hits t = locked t (fun () -> t.hit_count)
let misses t = locked t (fun () -> t.miss_count)
let invalidations t = locked t (fun () -> t.invalidation_count)

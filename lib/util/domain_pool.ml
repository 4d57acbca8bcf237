(** See the interface for the contract.  Implementation notes: workers
    block on a [Condition] over one shared task queue; a batch publishes
    result slots through the completion mutex, which gives the caller the
    happens-before edge it needs to read them after the join. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  has_work : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let jobs t = t.jobs

let worker pool () =
  let rec loop () =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.queue && not pool.stop do
      Condition.wait pool.has_work pool.mutex
    done;
    if Queue.is_empty pool.queue then Mutex.unlock pool.mutex (* stopping *)
    else begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.mutex;
      task ();
      loop ()
    end
  in
  loop ()

let create ~jobs () : t =
  let jobs = max 1 jobs in
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      queue = Queue.create ();
      stop = false;
      domains = [];
    }
  in
  if jobs > 1 then
    pool.domains <- List.init jobs (fun _ -> Domain.spawn (worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.has_work;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.domains;
  pool.domains <- []

(* ------------------------------------------------------------------ *)
(* Default pool                                                        *)
(* ------------------------------------------------------------------ *)

let override = ref None
let default_pool = ref None

let default_jobs () =
  match !override with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count () - 1)

let set_default_jobs n = override := Some (max 1 n)

let default () =
  let wanted = default_jobs () in
  match !default_pool with
  | Some p when p.jobs = wanted -> p
  | old ->
    Option.iter shutdown old;
    let p = create ~jobs:wanted () in
    default_pool := Some p;
    p

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)
(* ------------------------------------------------------------------ *)

type 'b batch = {
  out : 'b option array;
  (* first failure by input index; protected by [bm] *)
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
  mutable pending : int;  (** chunks not yet finished; protected by [bm] *)
  bm : Mutex.t;
  done_ : Condition.t;
}

let parallel_map ?pool ?(chunk = 1) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let pool = match pool with Some p -> p | None -> default () in
  if pool.jobs <= 1 then List.map f xs
  else
    match xs with
    | [] | [ _ ] -> List.map f xs
    | _ ->
      let input = Array.of_list xs in
      let n = Array.length input in
      let chunk = max 1 chunk in
      let n_chunks = (n + chunk - 1) / chunk in
      let b =
        {
          out = Array.make n None;
          failed = None;
          pending = n_chunks;
          bm = Mutex.create ();
          done_ = Condition.create ();
        }
      in
      let record_failure i e bt =
        match b.failed with
        | Some (j, _, _) when j <= i -> ()
        | Some _ | None -> b.failed <- Some (i, e, bt)
      in
      let run_chunk ci () =
        let lo = ci * chunk in
        let hi = min n (lo + chunk) - 1 in
        let local_fail = ref None in
        for i = lo to hi do
          (* keep going after a failure so [pending] drains; only the
             first failure per chunk can be the globally-first one *)
          if !local_fail = None then
            match f input.(i) with
            | v -> b.out.(i) <- Some v
            | exception e ->
              local_fail := Some (i, e, Printexc.get_raw_backtrace ())
        done;
        Mutex.lock b.bm;
        (match !local_fail with
        | Some (i, e, bt) -> record_failure i e bt
        | None -> ());
        b.pending <- b.pending - 1;
        if b.pending = 0 then Condition.signal b.done_;
        Mutex.unlock b.bm
      in
      Mutex.lock pool.mutex;
      for ci = 0 to n_chunks - 1 do
        Queue.push (run_chunk ci) pool.queue
      done;
      Condition.broadcast pool.has_work;
      Mutex.unlock pool.mutex;
      Mutex.lock b.bm;
      while b.pending > 0 do
        Condition.wait b.done_ b.bm
      done;
      let failed = b.failed in
      Mutex.unlock b.bm;
      (match failed with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
      Array.to_list
        (Array.map
           (function
             | Some v -> v
             | None -> invalid_arg "Domain_pool: missing result slot")
           b.out)

let parallel_iter ?pool ?chunk (f : 'a -> unit) (xs : 'a list) : unit =
  ignore (parallel_map ?pool ?chunk f xs)

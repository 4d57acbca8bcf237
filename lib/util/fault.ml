(** Deterministic fault injection (see the interface for the spec
    grammar).  All mutable state sits behind one mutex: checks may come
    from several domains at once when the evaluation matrix fans out. *)

type point =
  | Post_pass
  | Pre_simulate
  | Worker
  | Sim_bus
  | Serve_accept
  | Serve_decode
  | Serve_dispatch

let point_name = function
  | Post_pass -> "post-pass"
  | Pre_simulate -> "pre-simulate"
  | Worker -> "worker"
  | Sim_bus -> "sim-bus"
  | Serve_accept -> "serve-accept"
  | Serve_decode -> "serve-decode"
  | Serve_dispatch -> "serve-dispatch"

let point_of_name = function
  | "post-pass" -> Some Post_pass
  | "pre-simulate" -> Some Pre_simulate
  | "worker" -> Some Worker
  | "sim-bus" -> Some Sim_bus
  | "serve-accept" -> Some Serve_accept
  | "serve-decode" -> Some Serve_decode
  | "serve-dispatch" -> Some Serve_dispatch
  | _ -> None

let code_of_point = function
  | Post_pass -> "E_FAULT_PASS"
  | Pre_simulate -> "E_FAULT_SIM"
  | Worker -> "E_FAULT_WORKER"
  | Sim_bus -> "E_FAULT_BUS"
  | Serve_accept -> "E_FAULT_ACCEPT"
  | Serve_decode -> "E_FAULT_DECODE"
  | Serve_dispatch -> "E_FAULT_DISPATCH"

type clause = {
  cl_text : string;                (** the clause as written *)
  cl_point : point;
  cl_substr : string option;       (** match against "<scope>/<key>" *)
  mutable cl_remaining : int option;  (** [None] = unlimited *)
  cl_pct : int;                    (** fire probability, percent *)
  cl_transient : bool;             (** bounded or probabilistic *)
  mutable cl_reached : bool;       (** a check of [cl_point] has run *)
}

type config = { clauses : clause list; rng : Rng.t }

let state : config option ref = ref None
let mutex = Mutex.create ()

let clear () =
  Mutex.lock mutex;
  state := None;
  Mutex.unlock mutex

let active () =
  Mutex.lock mutex;
  let a = !state <> None in
  Mutex.unlock mutex;
  a

(* ------------------------------------------------------------------ *)
(* Spec parsing                                                        *)
(* ------------------------------------------------------------------ *)

let parse_clause s : (clause, string) result =
  (* point [@substr] [*count] [%pct] — the two suffixes may appear in
     either order after the point/substr part *)
  let rec strip acc s =
    let cut i = (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1)) in
    match
      (String.rindex_opt s '*', String.rindex_opt s '%')
    with
    | (Some i, Some j) when i > j ->
      let (rest, v) = cut i in
      strip (("*", v) :: acc) rest
    | (Some _, Some j) ->
      let (rest, v) = cut j in
      strip (("%", v) :: acc) rest
    | (Some i, None) ->
      let (rest, v) = cut i in
      strip (("*", v) :: acc) rest
    | (None, Some j) ->
      let (rest, v) = cut j in
      strip (("%", v) :: acc) rest
    | (None, None) -> (s, acc)
  in
  let (head, suffixes) = strip [] s in
  let (pname, substr) =
    match String.index_opt head '@' with
    | Some i ->
      ( String.sub head 0 i,
        Some (String.sub head (i + 1) (String.length head - i - 1)) )
    | None -> (head, None)
  in
  match point_of_name pname with
  | None -> Error (Printf.sprintf "unknown fault point %S" pname)
  | Some p ->
    let count = ref None and pct = ref 100 and err = ref None in
    List.iter
      (fun (k, v) ->
        match (k, int_of_string_opt v) with
        | ("*", Some n) when n >= 0 -> count := Some n
        | ("%", Some n) when n >= 0 && n <= 100 -> pct := n
        | _ -> err := Some (Printf.sprintf "bad %s value %S in %S" k v s))
      suffixes;
    (match !err with
    | Some e -> Error e
    | None ->
      Ok
        {
          cl_text = s;
          cl_point = p;
          cl_substr = substr;
          cl_remaining = !count;
          cl_pct = !pct;
          cl_transient = !count <> None || !pct < 100;
          cl_reached = false;
        })

let configure spec : (unit, string) result =
  let spec = String.trim spec in
  if spec = "" then begin
    clear ();
    Ok ()
  end
  else begin
    let parts =
      String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    let seed = ref 1 and clauses = ref [] and err = ref None in
    List.iter
      (fun part ->
        if !err = None then
          match String.index_opt part '=' with
          | Some i when String.sub part 0 i = "seed" -> (
            match
              int_of_string_opt
                (String.sub part (i + 1) (String.length part - i - 1))
            with
            | Some n -> seed := n
            | None -> err := Some (Printf.sprintf "bad seed in %S" part))
          | _ -> (
            match parse_clause part with
            | Ok c -> clauses := c :: !clauses
            | Error e -> err := Some e))
      parts;
    match !err with
    | Some e -> Error e
    | None ->
      Mutex.lock mutex;
      state :=
        (match !clauses with
        | [] -> None
        | cs -> Some { clauses = List.rev cs; rng = Rng.create ~seed:!seed });
      Mutex.unlock mutex;
      Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Scope and checks                                                    *)
(* ------------------------------------------------------------------ *)

let scope_key : string Domain.DLS.key = Domain.DLS.new_key (fun () -> "")

let with_scope name f =
  let old = Domain.DLS.get scope_key in
  Domain.DLS.set scope_key name;
  Fun.protect ~finally:(fun () -> Domain.DLS.set scope_key old) f

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  if n = 0 then true
  else begin
    let found = ref false in
    for i = 0 to m - n do
      if (not !found) && String.sub s i n = sub then found := true
    done;
    !found
  end

let check point ~key =
  match !state with
  | None -> ()
  | Some _ ->
    let full_key = Domain.DLS.get scope_key ^ "/" ^ key in
    let fire = ref None in
    Mutex.lock mutex;
    (match !state with
    | None -> ()
    | Some cfg ->
      List.iter
        (fun c ->
          if c.cl_point = point then begin
            c.cl_reached <- true;
            if
              !fire = None
              && (match c.cl_substr with
                 | None -> true
                 | Some sub -> contains ~sub full_key)
              && c.cl_remaining <> Some 0
              && (c.cl_pct >= 100 || Rng.int cfg.rng 100 < c.cl_pct)
            then begin
              (match c.cl_remaining with
              | Some n -> c.cl_remaining <- Some (n - 1)
              | None -> ());
              fire := Some c
            end
          end)
        cfg.clauses);
    Mutex.unlock mutex;
    (match !fire with
    | None -> ()
    | Some c ->
      Diag.error Diag.Fault ~transient:c.cl_transient
        ~code:(code_of_point point) "injected %s fault at %s"
        (point_name point) full_key)

let unreached () =
  Mutex.lock mutex;
  let texts =
    match !state with
    | None -> []
    | Some cfg ->
      List.filter_map
        (fun c -> if c.cl_reached then None else Some c.cl_text)
        cfg.clauses
  in
  Mutex.unlock mutex;
  texts

module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module Sim = Lp_sim.Sim
module Value = Lp_sim.Value
module Diag = Lp_util.Diag
module Obs = Lp_obs.Obs

type finding = {
  f_seed : int;
  f_machine : string;
  f_kind : string;
  f_detail : string;
  f_source : string;
}

type summary = {
  tested : int;
  passed : int;
  degraded : int;
  findings : finding list;
}

let default_machine () = Machine.generic ~n_cores:4 ()

(** Every zoo machine, at its own core count. *)
let zoo () =
  List.map
    (fun (_, _, (mk : ?cores:int -> unit -> Machine.t)) -> mk ())
    Machine.registry

(** The fully-optimised configuration, parallelised over every core of
    the fuzzed machine. *)
let full_opts machine = Compile.full ~n_cores:(Machine.n_cores machine)

(* ------------------------------------------------------------------ *)
(* One configuration run                                               *)
(* ------------------------------------------------------------------ *)

(** Run one configuration.  [run_result] already turns every pipeline
    exception into a diagnostic; anything it still raises is a raw
    escape — the first property the fuzzer checks. *)
let run_config ?ctx ~machine ~opts source :
    (Sim.outcome, [ `Diag of Diag.t | `Raw of string ]) result =
  match Compile.run_result ?ctx ~verify_each:true ~opts ~machine source with
  | Ok (_compiled, outcome) -> Ok outcome
  | Error d -> Error (`Diag d)
  | exception e -> Error (`Raw (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Observable-result comparison                                        *)
(* ------------------------------------------------------------------ *)

let ret_str = function
  | Some v -> Value.to_string v
  | None -> "(none)"

(** First observable difference between two outcomes, if any: the
    return value of [main] and the final contents of every output
    array, read through [Sim.shared_array].  A global missing from
    either outcome, or from both, is a difference: the program declares
    it, so the simulator must report it. *)
let first_diff ~(globals : string list) (a : Sim.outcome) (b : Sim.outcome) :
    string option =
  let ret_equal =
    match (a.Sim.ret, b.Sim.ret) with
    | (None, None) -> true
    | (Some x, Some y) -> Value.equal x y
    | _ -> false
  in
  if not ret_equal then
    Some
      (Printf.sprintf "return value: baseline %s, full %s" (ret_str a.Sim.ret)
         (ret_str b.Sim.ret))
  else
    List.find_map
      (fun g ->
        match (Sim.shared_array a g, Sim.shared_array b g) with
        | (Some xa, Some xb) ->
          if Array.length xa <> Array.length xb then
            Some (Printf.sprintf "%s: length %d vs %d" g (Array.length xa)
                    (Array.length xb))
          else
            let diff = ref None in
            Array.iteri
              (fun i v ->
                if !diff = None && not (Value.equal v xb.(i)) then
                  diff :=
                    Some
                      (Printf.sprintf "%s[%d]: baseline %s, full %s" g i
                         (Value.to_string v)
                         (Value.to_string xb.(i))))
              xa;
            !diff
        | (None, None) ->
          Some (Printf.sprintf "%s missing from both configurations" g)
        | _ -> Some (Printf.sprintf "%s missing from one configuration" g))
      globals

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)
(* ------------------------------------------------------------------ *)

let run_seed ?(ctx = Compile.default_ctx) ?(machine = default_machine ())
    ~seed () : ([ `Passed | `Degraded of string ], finding) result =
  Obs.span ctx.Compile.obs ~cat:"fuzz"
    ~args:[ ("seed", Obs.Int seed) ]
    (Printf.sprintf "seed %d" seed)
  @@ fun () ->
  let gen = Gen.generate ~seed in
  let finding kind detail =
    Error { f_seed = seed; f_machine = machine.Machine.name; f_kind = kind;
            f_detail = detail; f_source = gen.Gen.source }
  in
  let base = run_config ~ctx ~machine ~opts:Compile.baseline gen.Gen.source in
  let full =
    run_config ~ctx ~machine ~opts:(full_opts machine) gen.Gen.source
  in
  match (base, full) with
  | (Error (`Raw e), _) -> finding "raw-exception" ("baseline: " ^ e)
  | (_, Error (`Raw e)) -> finding "raw-exception" ("full: " ^ e)
  | (Ok a, Ok b) -> (
    match first_diff ~globals:gen.Gen.check_globals a b with
    | None -> Ok `Passed
    | Some diff -> finding "result-mismatch" diff)
  | (Error (`Diag d1), Error (`Diag d2)) ->
    if d1.Diag.code = d2.Diag.code then Ok (`Degraded d1.Diag.code)
    else
      finding "diag-divergence"
        (Printf.sprintf "baseline %s vs full %s" (Diag.to_string d1)
           (Diag.to_string d2))
  | (Ok _, Error (`Diag d)) ->
    finding "config-divergence" ("only full failed: " ^ Diag.to_string d)
  | (Error (`Diag d), Ok _) ->
    finding "config-divergence" ("only baseline failed: " ^ Diag.to_string d)

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

(* a finding's files: [seed_N_MACHINE] plus [ext] *)
let seed_file ~dir (f : finding) ext =
  Filename.concat dir (Printf.sprintf "seed_%d_%s%s" f.f_seed f.f_machine ext)

(** Write a failing seed as a replayable MiniC file, named after its
    seed and machine.  The header names the machine and, for a zoo
    machine, the [lpcc run] line that compiles the file for it.  When a
    power report was captured for the seed, the header points at it so
    the triager sees the compiler's power decisions next to the
    repro. *)
let write_corpus_file ?report_path ~dir (f : finding) : string =
  mkdir_p dir;
  let path = seed_file ~dir f ".c" in
  let run =
    List.find_map
      (fun (name, _, (mk : ?cores:int -> unit -> Machine.t)) ->
        let m = mk () in
        if m.Machine.name = f.f_machine then
          Some
            (Printf.sprintf "//          lpcc run %s -m %s -c %d -k full\n" path
               name (Machine.n_cores m))
        else None)
      Machine.registry
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc
        "// lpcc fuzz finding\n// seed:    %d\n// machine: %s\n\
         // kind:    %s\n// detail:  %s\n\
         // replay:  lpcc fuzz --seeds 1 --seed-start %d\n%s%s\n%s"
        f.f_seed f.f_machine f.f_kind
        (String.map (function '\n' -> ' ' | c -> c) f.f_detail)
        f.f_seed (Option.value run ~default:"")
        (match report_path with
        | Some rp -> Printf.sprintf "// report:  %s\n" rp
        | None -> "")
        f.f_source);
  path

(** Re-run a finding's seed (full configuration) with a fresh audit
    report and write it next to the corpus file.  Failures are expected
    here — the seed is failing, that's why it is in the corpus — so the
    report captures whatever decisions happened before the failure. *)
let write_seed_report ~dir ~machine (f : finding) : string =
  mkdir_p dir;
  let rep = Lp_obs.Report.create () in
  let rctx = Compile.make_ctx ~report:rep () in
  Lp_obs.Report.with_scope (Printf.sprintf "seed_%d" f.f_seed) (fun () ->
      ignore
        (run_config ~ctx:rctx ~machine ~opts:(full_opts machine) f.f_source));
  let path = seed_file ~dir f ".report.json" in
  Lp_obs.Report.write rep ~path;
  path

(* ------------------------------------------------------------------ *)
(* Batch driver                                                        *)
(* ------------------------------------------------------------------ *)

let run_range ?(ctx = Compile.default_ctx) ?machine ?(log = ignore)
    ~corpus_dir ~seed_start ~seeds () : summary =
  let machines = match machine with Some m -> [ m ] | None -> zoo () in
  let passed = ref 0 and degraded = ref 0 and findings = ref [] in
  for seed = seed_start to seed_start + seeds - 1 do
    List.iter
      (fun (machine : Machine.t) ->
        match run_seed ~ctx ~machine ~seed () with
        | Ok `Passed -> incr passed
        | Ok (`Degraded code) ->
          incr degraded;
          log
            (Printf.sprintf "seed %d on %s: degraded consistently (%s)" seed
               machine.Machine.name code)
        | Error f ->
          let report_path = write_seed_report ~dir:corpus_dir ~machine f in
          let path = write_corpus_file ~report_path ~dir:corpus_dir f in
          findings := f :: !findings;
          log
            (Printf.sprintf "seed %d on %s: %s — %s (saved to %s, report %s)"
               seed f.f_machine f.f_kind f.f_detail path report_path))
      machines
  done;
  let tested = seeds * List.length machines in
  log
    (Printf.sprintf
       "%d seed(s) on %d machine(s): %d passed, %d degraded, %d finding(s)"
       seeds (List.length machines) !passed !degraded
       (List.length !findings));
  let obs = ctx.Compile.obs in
  Obs.add obs "fuzz.tested" tested;
  Obs.add obs "fuzz.passed" !passed;
  Obs.add obs "fuzz.degraded" !degraded;
  Obs.add obs "fuzz.findings" (List.length !findings);
  {
    tested;
    passed = !passed;
    degraded = !degraded;
    findings = List.rev !findings;
  }

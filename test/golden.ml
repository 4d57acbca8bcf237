(** The three in-test goldens, rendered as committed: test/golden_ir.txt,
    test/golden_report.json and test/golden_profile.json.
    [render_goldens.exe] prints each one and test/dune diffs the output
    against the committed file, so [dune promote] regenerates them after
    a deliberate change. *)

module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module W = Lp_workloads.Workload

(** Small but decision-rich: a multiplier loop (gating + break-even), a
    memory-bound loop (DVFS) and enough straight-line code for the
    classic passes to move.  The report and profile goldens compile it
    under [pg_dvfs] on generic-2c. *)
let source =
  "int a[32];\nint b[32];\n\
   int main() {\n\
  \  for (int i = 0; i < 32; i = i + 1) { a[i] = a[i] * 3; }\n\
  \  for (int j = 0; j < 32; j = j + 1) { b[j] = a[j] + b[j]; }\n\
  \  return a[31] + b[31];\n\
   }"

(** One digest of the printed IR per bundled program under baseline,
    pg_dvfs and full on generic-4c.  Every change to what the compiler
    emits shows here, including changes that move no simulated metric;
    optimizer speed-ups must leave it untouched. *)
let ir () =
  let machine = Machine.generic ~n_cores:4 () in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (config, opts) ->
          let digest =
            match Compile.compile ~opts ~machine w.W.source with
            | c ->
              Digest.to_hex
                (Digest.string (Lp_ir.Printer.prog_to_string c.Compile.prog))
            | exception Compile.Compile_error msg -> "error: " ^ msg
          in
          Printf.bprintf buf "%s/%s %s\n" w.W.name config digest)
        [ ("baseline", Compile.baseline); ("pg_dvfs", Compile.pg_dvfs);
          ("full", Compile.full ~n_cores:4) ])
    Lp_workloads.Suite.all;
  Buffer.contents buf

(** The power-decision audit report of {!source}.  Events carry no
    timestamps, so it renders identically on every run. *)
let report () =
  let rep = Lp_obs.Report.create () in
  let ctx = Compile.make_ctx ~report:rep () in
  let machine = Machine.generic ~n_cores:2 () in
  Lp_obs.Report.with_scope "golden" (fun () ->
      ignore (Compile.run ~ctx ~opts:Compile.pg_dvfs ~machine source));
  Lp_obs.Report.to_string rep

(** The energy profile artifact of {!source}. *)
let profile () =
  let machine = Machine.generic ~n_cores:2 () in
  let sim_opts =
    { Lp_sim.Sim.default_options with Lp_sim.Sim.profile = true }
  in
  match Compile.run_result ~opts:Compile.pg_dvfs ~sim_opts ~machine source with
  | Ok (_, o) ->
    Lp_util.Json.to_string
      (Lowpower.Profile_report.to_json ~source:"golden"
         ~machine:machine.Machine.name o)
  | Error d -> failwith ("golden pipeline: " ^ Lp_util.Diag.to_string d)

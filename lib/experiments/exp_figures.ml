(** Figures F1-F6 of the evaluation, printed as data series (one table
    per figure; each row is one point of the plotted series). *)

open Exp_common
module T = Lp_transforms
module Power_model = Lp_power.Power_model

let find = Lp_workloads.Suite.find_exn

(* the metrics the figures compare a cell with its reference by *)
let speedup b r = Table.fmt_float ~digits:2 (time_ns b /. time_ns r)
let energy_ratio b r = fmt_ratio (energy r /. energy b)
let time_ratio b r = fmt_ratio (time_ns r /. time_ns b)

(* ------------------------------------------------------------------ *)
(* F1: speedup & energy vs core count                                  *)
(* ------------------------------------------------------------------ *)

let f1_core_counts = [ 1; 2; 4; 8 ]

let f1 () : Table.t =
  row_table
    ~title:
      "F1: Scaling with core count (full config; speedup and energy vs \
       1-core baseline)"
    ~header:[ "workload"; "cores"; "speedup"; "energy ratio"; "edp ratio" ]
    ~aligns:Table.[ Left; Right; Right; Right; Right ]
    [ Pair speedup; Pair energy_ratio;
      Pair (fun b r -> fmt_ratio (edp r /. edp b)) ]
    (List.concat_map
       (fun name ->
         let w = find name in
         let reference =
           job ~machine:(machine_with_cores 1) w ~config:"baseline-1c"
             Compile.baseline
         in
         List.map
           (fun n ->
             row [ name; string_of_int n ] ~reference
               (job ~machine:(machine_with_cores n) w
                  ~config:(Printf.sprintf "full-%dc" n)
                  (Compile.full ~n_cores:n)))
           f1_core_counts)
       Lp_workloads.Suite.representative)

(* ------------------------------------------------------------------ *)
(* F2: energy-delay product                                            *)
(* ------------------------------------------------------------------ *)

let f2 () : Table.t =
  let rows =
    List.map
      (fun (w : Workload.t) ->
        ( w,
          job w ~config:"baseline" Compile.baseline,
          job w ~config:"full" (Compile.full ~n_cores:4) ))
      all_workloads
  in
  run_matrix (List.concat_map (fun (_, b, f) -> [ b; f ]) rows);
  let tbl =
    Table.create
      ~title:"F2: Energy-delay product, full vs baseline (lower is better)"
      ~header:[ "workload"; "baseline EDP"; "full EDP"; "ratio" ]
      ~aligns:Table.[ Left; Right; Right; Right ]
      ()
  in
  let ratios =
    List.fold_left
      (fun acc ((w : Workload.t), b, f) ->
        let base = result_of b and full = result_of f in
        Table.add_row tbl
          [
            w.Workload.name;
            scell base (fun b -> Table.fmt_float ~digits:1 (edp b));
            scell full (fun r -> Table.fmt_float ~digits:1 (edp r));
            scell2 base full (fun b r -> fmt_ratio (edp r /. edp b));
          ];
        fopt2 base full (fun b r -> edp r /. edp b) :: acc)
      [] rows
  in
  Table.add_row tbl [ "geomean"; "-"; "-"; geomean_str ratios ];
  tbl

(* ------------------------------------------------------------------ *)
(* F3: energy breakdown                                                *)
(* ------------------------------------------------------------------ *)

let f3 () : Table.t =
  let module L = Lp_power.Energy_ledger in
  let uj f =
    Compared
      (fun r -> Table.fmt_float ~digits:1 (f r.outcome.Sim.energy /. 1e3))
  in
  let cat c = uj (fun e -> L.of_category e c) in
  row_table ~title:"F3: Energy breakdown by category (uJ), baseline vs full"
    ~header:
      [ "workload"; "config"; "dynamic"; "leak-active"; "leak-idle";
        "gate-ovh"; "dvfs-ovh"; "comm"; "total" ]
    ~aligns:
      Table.[ Left; Left; Right; Right; Right; Right; Right; Right; Right ]
    [ cat L.Dynamic; cat L.Leakage_active; cat L.Leakage_idle;
      cat L.Gating_overhead; cat L.Dvfs_overhead; cat L.Communication;
      uj L.total ]
    (List.concat_map
       (fun name ->
         List.map
           (fun (cfg, opts) ->
             single [ name; cfg ] (job (find name) ~config:cfg opts))
           [ ("baseline", Compile.baseline);
             ("full", Compile.full ~n_cores:4) ])
       Lp_workloads.Suite.representative)

(* ------------------------------------------------------------------ *)
(* F4: sensitivity to the gating break-even threshold                  *)
(* ------------------------------------------------------------------ *)

let f4_scales = [ 0.0625; 0.25; 1.0; 4.0; 16.0; 64.0; 1000.0 ]
let f4_workloads = [ "phases"; "jpegblocks"; "fft" ]

(** The sweep runs on a leakage-heavy technology node (3x leakage) where
    the break-even threshold actually arbitrates: too eager (small scale)
    pays transition overhead on short regions, too conservative (large
    scale) leaves leakage on the table.  Energy is normalised to
    scale 1.0, itself one of the scales. *)
let f4 () : Table.t =
  let machine =
    Lp_machine.Machine.generic ~n_cores:4 ~power:(Power_model.leaky ()) ()
  in
  let at w scale =
    job ~machine w
      ~config:(Printf.sprintf "pg-be%.4f" scale)
      (Compile.Options.update
         ~gating_opts:{ T.Gating.break_even_scale = scale }
         Compile.pg_only)
  in
  row_table
    ~title:
      "F4: Gating break-even threshold sweep (pg-only, leaky node; \
       energy normalised to scale=1.0)"
    ~header:[ "workload"; "scale"; "energy ratio"; "gate transitions" ]
    ~aligns:Table.[ Left; Right; Right; Right ]
    [ Pair energy_ratio;
      Compared (fun r -> string_of_int r.outcome.Sim.gate_transitions) ]
    (List.concat_map
       (fun name ->
         let w = find name in
         List.map
           (fun scale ->
             row [ name; Table.fmt_float ~digits:4 scale ]
               ~reference:(at w 1.0) (at w scale))
           f4_scales)
       f4_workloads)

(* ------------------------------------------------------------------ *)
(* F5: number of DVFS operating points                                 *)
(* ------------------------------------------------------------------ *)

let f5_levels = [ 2; 3; 4; 6 ]
let f5_workloads = [ "histogram"; "imgpipe"; "jpegblocks" ]

let f5 () : Table.t =
  let at w levels =
    job
      ~machine:
        (Lp_machine.Machine.generic ~n_cores:4
           ~power:(Power_model.default ~n_levels:levels ())
           ())
      w
      ~config:(Printf.sprintf "full-L%d" levels)
      (Compile.full ~n_cores:4)
  in
  row_table
    ~title:
      "F5: Energy vs number of V/f operating points (full config; \
       normalised to the 2-point machine)"
    ~header:[ "workload"; "levels"; "energy ratio"; "time ratio" ]
    ~aligns:Table.[ Left; Right; Right; Right ]
    [ Pair energy_ratio; Pair time_ratio ]
    (List.concat_map
       (fun name ->
         let w = find name in
         List.map
           (fun levels ->
             row [ name; string_of_int levels ] ~reference:(at w 2)
               (at w levels))
           f5_levels)
       f5_workloads)

(* ------------------------------------------------------------------ *)
(* F6: Sink-N-Hoist ablation                                           *)
(* ------------------------------------------------------------------ *)

let f6 () : Table.t =
  let toggles r =
    r.compiled.Compile.gating_after_merge.T.Gating.components_toggled
  in
  let transitions r = string_of_int r.outcome.Sim.gate_transitions in
  row_table
    ~title:"F6: Sink-N-Hoist ablation (pg-only with and without the merge)"
    ~header:
      [ "workload"; "gate toggles (no merge)"; "gate toggles (merge)";
        "reduction%"; "energy ratio (merge/no)"; "transitions (no)";
        "transitions (merge)" ]
    ~aligns:Table.[ Left; Right; Right; Right; Right; Right; Right ]
    [ Reference (fun r -> string_of_int (toggles r));
      Compared (fun r -> string_of_int (toggles r));
      Pair (fun n r -> reduction_pct ~before:(toggles n) ~after:(toggles r));
      Pair energy_ratio; Reference transitions; Compared transitions ]
    (List.map
       (fun (w : Workload.t) ->
         row [ w.Workload.name ]
           ~reference:
             (job w ~config:"pg-nomerge"
                (Compile.Options.update ~sink_n_hoist:false Compile.pg_only))
           (job w ~config:"pg" Compile.pg_only))
       all_workloads)

(* ------------------------------------------------------------------ *)
(* A1: machine sensitivity (extension beyond the reconstructed set)    *)
(* ------------------------------------------------------------------ *)

(** Full-vs-baseline energy and speedup across three machine models:
    the win grows with core count and with the node's leakage share. *)
let a1_workloads = [ "fir"; "fraciter"; "imgpipe"; "memops" ]

let a1 () : Table.t =
  let machines =
    [ Lp_machine.Machine.pac_duo_like ();
      Lp_machine.Machine.generic ~n_cores:4 ();
      Lp_machine.Machine.octa_leaky () ]
  in
  row_table
    ~title:"A1: Machine sensitivity — full vs baseline on three machine models"
    ~header:[ "workload"; "machine"; "cores"; "speedup"; "energy ratio" ]
    ~aligns:Table.[ Left; Left; Right; Right; Right ]
    [ Pair speedup; Pair energy_ratio ]
    (List.concat_map
       (fun name ->
         let w = find name in
         List.map
           (fun machine ->
             let n_cores = Lp_machine.Machine.n_cores machine in
             row
               [ name; machine.Lp_machine.Machine.name; string_of_int n_cores ]
               ~reference:(job ~machine w ~config:"baseline" Compile.baseline)
               (job ~machine w ~config:"full-native" (Compile.full ~n_cores)))
           machines)
       a1_workloads)

(* ------------------------------------------------------------------ *)
(* A2: block vs cyclic doall distribution (extension)                  *)
(* ------------------------------------------------------------------ *)

(** On index-correlated work (the triangular kernel), a block split makes
    the last core the straggler; cyclic interleaving balances it.  On
    uniform kernels the two are equivalent. *)
let a2_workloads = [ "tri"; "fir"; "conv2d" ]

let a2 () : Table.t =
  row_table
    ~title:"A2: doall distribution ablation — block vs cyclic (full, 4 cores)"
    ~header:[ "workload"; "distribution"; "speedup"; "energy ratio" ]
    ~aligns:Table.[ Left; Left; Right; Right ]
    [ Pair speedup; Pair energy_ratio ]
    (List.concat_map
       (fun name ->
         let w = find name in
         List.map
           (fun (dname, distribution) ->
             row [ name; dname ]
               ~reference:(job w ~config:"baseline" Compile.baseline)
               (job w ~config:("full-" ^ dname)
                  (Compile.Options.update ~distribution
                     (Compile.full ~n_cores:4))))
           [ ("block", T.Parallelize.Block); ("cyclic", T.Parallelize.Cyclic) ])
       a2_workloads)

(* ------------------------------------------------------------------ *)
(* A3: completion-sync ablation (extension)                            *)
(* ------------------------------------------------------------------ *)

(** Doall completion via per-worker acknowledge messages vs one all-core
    barrier.  Expected to be second-order on these machines (both
    mechanisms are a handful of link transactions per instance). *)
let a3_workloads = [ "fir"; "conv2d"; "fft" ]

let a3 () : Table.t =
  row_table
    ~title:"A3: doall completion sync — done-channel vs barrier (full, 4 cores)"
    ~header:[ "workload"; "sync"; "time ratio"; "energy ratio" ]
    ~aligns:Table.[ Left; Left; Right; Right ]
    [ Pair time_ratio; Pair energy_ratio ]
    (List.concat_map
       (fun name ->
         let at sync config =
           job (find name) ~config
             (Compile.Options.update ~sync (Compile.full ~n_cores:4))
         in
         let done_chan = at T.Parallelize.Done_channel "full" in
         [ row [ name; "done-chan" ] ~reference:done_chan done_chan;
           row [ name; "barrier" ] ~reference:done_chan
             (at T.Parallelize.Barrier_sync "full-barrier") ])
       a3_workloads)

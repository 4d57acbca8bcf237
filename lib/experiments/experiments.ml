(** Registry of all evaluation experiments.  [bench/main.exe] runs every
    entry; [bench/main.exe t3] (etc.) runs one.  The machine-zoo sweep
    ({!Sweep}) is not an entry: [lpcc sweep] drives it. *)

type entry = {
  id : string;
  what : string;
  run : unit -> Lp_util.Table.t;
}

let all : entry list =
  [
    { id = "t1"; what = "benchmark characteristics"; run = Exp_tables.t1 };
    { id = "t2"; what = "pattern detection"; run = Exp_tables.t2 };
    { id = "t3"; what = "normalised energy by config"; run = Exp_tables.t3 };
    { id = "t3b"; what = "single-core energy (within-core effects)";
      run = Exp_tables.t3b };
    { id = "t4"; what = "performance impact"; run = Exp_tables.t4 };
    { id = "t5"; what = "compile statistics"; run = Exp_tables.t5 };
    { id = "f1"; what = "scaling with core count"; run = Exp_figures.f1 };
    { id = "f2"; what = "energy-delay product"; run = Exp_figures.f2 };
    { id = "f3"; what = "energy breakdown"; run = Exp_figures.f3 };
    { id = "f4"; what = "gating break-even sweep"; run = Exp_figures.f4 };
    { id = "f5"; what = "operating-point count sweep"; run = Exp_figures.f5 };
    { id = "f6"; what = "Sink-N-Hoist ablation"; run = Exp_figures.f6 };
    { id = "a1"; what = "machine sensitivity (extension)";
      run = Exp_figures.a1 };
    { id = "a2"; what = "block vs cyclic distribution (extension)";
      run = Exp_figures.a2 };
    { id = "a3"; what = "completion sync ablation (extension)";
      run = Exp_figures.a3 };
  ]

(** Run one entry, returning the table and the wall-clock seconds it took
    (wall, not CPU: the matrix may have fanned out over several domains). *)
let run_timed (e : entry) : Lp_util.Table.t * float =
  let t0 = Unix.gettimeofday () in
  let table = e.run () in
  (table, Unix.gettimeofday () -. t0)

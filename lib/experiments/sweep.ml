(** Design-space sweep across the machine zoo.

    Fans the workload suite × compiler-config matrix over every zoo
    machine (or a chosen subset) on the shared {!Exp_common} memo cache
    and [Domain_pool], then renders the results sequentially from the
    cache — so the emitted JSON and crossover table are byte-identical
    whatever the pool size.  The headline artifact is the crossover
    table: the winning compiler configuration per (workload, machine),
    the "which decision pays off where" shape of result the paper's
    argument rests on. *)

module Compile = Lowpower.Compile
module Machine = Lp_machine.Machine
module Workload = Lp_workloads.Workload
module Table = Lp_util.Table
module Diag = Lp_util.Diag
module J = Lp_util.Json

type cell = {
  s_workload : string;
  s_config : string;
  s_machine : string;
  s_cycles : float;       (** total compute cycles across cores *)
  s_energy_nj : float;
  s_duration_ns : float;
  s_status : string option;  (** diagnostic code when the cell failed *)
}

type winner = {
  w_workload : string;
  w_machine : string;
  w_config : string;         (** energy-minimal configuration *)
  w_energy_nj : float;
  w_saving_pct : float;      (** vs the baseline config on that machine *)
}

type t = {
  sw_machines : string list;   (** zoo names, sweep order *)
  sw_workloads : string list;
  sw_configs : string list;
  sw_cells : cell list;        (** sorted by (workload, machine, config) *)
  sw_winners : winner list;    (** sorted by (workload, machine) *)
  sw_incomplete : (string * string) list;
      (** (workload, machine) rows without a winner because a cell
          failed with a code other than [E_COMPILE], same order *)
}

let default_machines = Machine.names

let machine_of_exn name =
  match Machine.of_name name with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Sweep: unknown machine %S" name)

let configs_for (m : Machine.t) = Compile.configs ~n_cores:(Machine.n_cores m)

(** Run the matrix (parallel, memoised) and collect it (sequential). *)
let run ?pool ?(machines = default_machines)
    ?(workloads = Lp_workloads.Suite.names) () : t =
  let ms = List.map machine_of_exn machines in
  let ws = List.map Lp_workloads.Suite.find_exn workloads in
  let jobs =
    List.concat_map
      (fun m -> Exp_common.cross ~machine:m ws (configs_for m))
      ms
  in
  Exp_common.run_matrix ?pool jobs;
  let sweep_cell (j : Exp_common.job) =
    let c =
      {
        s_workload = j.Exp_common.j_workload.Workload.name;
        s_config = j.Exp_common.j_config;
        s_machine = j.Exp_common.j_machine.Machine.name;
        s_cycles = 0.0;
        s_energy_nj = 0.0;
        s_duration_ns = 0.0;
        s_status = None;
      }
    in
    match Exp_common.result_of j with
    | Ok r ->
      { c with
        s_cycles = Exp_common.cycles r;
        s_energy_nj = Exp_common.energy r;
        s_duration_ns = Exp_common.time_ns r }
    | Error d -> { c with s_status = Some d.Diag.code }
  in
  let cells =
    List.sort
      (fun a b ->
        compare
          (a.s_workload, a.s_machine, a.s_config)
          (b.s_workload, b.s_machine, b.s_config))
      (List.map sweep_cell jobs)
  in
  (* winner per (workload, machine): lowest energy, ties broken by fewer
     cycles, then by config order — deterministic however the matrix
     was scheduled *)
  let order c =
    match List.find_index (String.equal c) Compile.config_names with
    | Some i -> i
    | None -> List.length Compile.config_names
  in
  let rows =
    List.concat_map
      (fun w ->
        List.map (fun (m : Machine.t) -> (w.Workload.name, m.Machine.name)) ms)
      ws
  in
  let row_cells (w, m) =
    List.filter (fun c -> c.s_workload = w && c.s_machine = m) cells
  in
  (* E_COMPILE is a datum (the machine cannot run the workload); any
     other failure leaves the row's winner unknown *)
  let (incomplete, complete) =
    List.partition
      (fun row ->
        List.exists
          (fun c ->
            match c.s_status with Some code -> code <> "E_COMPILE" | None -> false)
          (row_cells row))
      rows
  in
  let winners =
    List.filter_map
      (fun row ->
        let ran = List.filter (fun c -> c.s_status = None) (row_cells row) in
        let best =
          List.fold_left
            (fun acc c ->
              match acc with
              | None -> Some c
              | Some b ->
                if
                  (c.s_energy_nj, c.s_cycles, order c.s_config)
                  < (b.s_energy_nj, b.s_cycles, order b.s_config)
                then Some c
                else acc)
            None ran
        in
        Option.map
          (fun (b : cell) ->
            let base_e =
              match List.find_opt (fun c -> c.s_config = "baseline") ran with
              | Some c when c.s_energy_nj > 0.0 -> c.s_energy_nj
              | _ -> b.s_energy_nj
            in
            {
              w_workload = b.s_workload;
              w_machine = b.s_machine;
              w_config = b.s_config;
              w_energy_nj = b.s_energy_nj;
              w_saving_pct = 100.0 *. (1.0 -. (b.s_energy_nj /. base_e));
            })
          best)
      complete
  in
  {
    sw_machines = List.map (fun (m : Machine.t) -> m.Machine.name) ms;
    sw_workloads = List.map (fun w -> w.Workload.name) ws;
    sw_configs = Compile.config_names;
    sw_cells = cells;
    sw_winners = winners;
    sw_incomplete = incomplete;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(** The crossover table: winning config (and its saving vs baseline)
    per workload row × machine column; [incomplete] where a cell failed,
    [ERR] where the machine could run no config. *)
let crossover_table (t : t) : Table.t =
  let tbl =
    Table.create
      ~title:"Sweep: energy-winning configuration per (workload, machine)"
      ~header:("workload" :: t.sw_machines)
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Left) t.sw_machines)
      ()
  in
  List.iter
    (fun w ->
      Table.add_row tbl
        (w
        :: List.map
             (fun m ->
               match
                 List.find_opt
                   (fun win -> win.w_workload = w && win.w_machine = m)
                   t.sw_winners
               with
               | Some win ->
                 Printf.sprintf "%s (-%.1f%%)" win.w_config win.w_saving_pct
               | None when List.mem (w, m) t.sw_incomplete -> "incomplete"
               | None -> "ERR")
             t.sw_machines))
    t.sw_workloads;
  tbl

(** Workload/machine pairs whose winning config differs from the same
    workload's winner on another machine — the crossovers themselves. *)
let crossovers (t : t) : (string * (string * string) list) list =
  List.filter_map
    (fun w ->
      let wins =
        List.filter (fun win -> win.w_workload = w) t.sw_winners
      in
      let distinct =
        List.sort_uniq compare (List.map (fun win -> win.w_config) wins)
      in
      if List.length distinct > 1 then
        Some (w, List.map (fun win -> (win.w_machine, win.w_config)) wins)
      else None)
    t.sw_workloads

let to_json (t : t) : string =
  let buf = Buffer.create 4096 in
  let strs l =
    String.concat ", " (List.map (fun s -> Printf.sprintf "%S" s) l)
  in
  Buffer.add_string buf "{\n  \"schema\": \"lowpower-bench-sweep/1\",\n";
  Printf.bprintf buf "  \"machines\": [%s],\n" (strs t.sw_machines);
  Printf.bprintf buf "  \"workloads\": [%s],\n" (strs t.sw_workloads);
  Printf.bprintf buf "  \"configs\": [%s],\n" (strs t.sw_configs);
  Buffer.add_string buf "  \"cells\": [\n";
  List.iteri
    (fun i c ->
      Printf.bprintf buf
        "    {\"workload\": %S, \"machine\": %S, \"config\": %S, \
         \"cycles\": %s, \"energy_nj\": %s, \"duration_ns\": %s, \
         \"status\": %s}%s\n"
        c.s_workload c.s_machine c.s_config
        (J.num_to_string c.s_cycles)
        (J.num_to_string c.s_energy_nj)
        (J.num_to_string c.s_duration_ns)
        (match c.s_status with
        | None -> "\"ok\""
        | Some code -> Printf.sprintf "%S" code)
        (if i = List.length t.sw_cells - 1 then "" else ","))
    t.sw_cells;
  Buffer.add_string buf "  ],\n  \"winners\": [\n";
  List.iteri
    (fun i w ->
      Printf.bprintf buf
        "    {\"workload\": %S, \"machine\": %S, \"config\": %S, \
         \"energy_nj\": %s, \"saving_pct\": %s}%s\n"
        w.w_workload w.w_machine w.w_config
        (J.num_to_string w.w_energy_nj)
        (J.num_to_string w.w_saving_pct)
        (if i = List.length t.sw_winners - 1 then "" else ","))
    t.sw_winners;
  Buffer.add_string buf "  ]";
  if t.sw_incomplete <> [] then begin
    Buffer.add_string buf ",\n  \"incomplete\": [\n";
    Buffer.add_string buf
      (String.concat ",\n"
         (List.map
            (fun (w, m) ->
              Printf.sprintf "    {\"workload\": %S, \"machine\": %S}" w m)
            t.sw_incomplete));
    Buffer.add_string buf "\n  ]"
  end;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

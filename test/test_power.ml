(** Power model, energy ledger, operating points, machine descriptions. *)

module Component = Lp_power.Component
module Operating_point = Lp_power.Operating_point
module Power_model = Lp_power.Power_model
module Ledger = Lp_power.Energy_ledger
module Machine = Lp_machine.Machine

let check = Alcotest.check
let fail = Alcotest.fail
let feq = Alcotest.float 1e-9

(* ---------------- components ---------------- *)

let test_component_roundtrip () =
  List.iter
    (fun c ->
      check Alcotest.int "index roundtrip" (Component.index c)
        (Component.index (Component.of_index (Component.index c)));
      if Component.of_string (Component.to_string c) <> c then fail "string roundtrip")
    Component.all

let test_component_gateable () =
  if Component.gateable Component.Alu then fail "alu must not be gateable";
  if Component.gateable Component.Branch_unit then fail "branch unit must not be gateable";
  if not (Component.gateable Component.Multiplier) then fail "multiplier gateable";
  check Alcotest.int "gateable set size" 6
    (Component.Set.cardinal Component.Set.all_gateable)

(* ---------------- operating points ---------------- *)

let test_ladder () =
  let pts = Operating_point.ladder ~n:4 ~fmin:100.0 ~fmax:400.0 ~vmin:0.8 ~vmax:1.2 in
  check Alcotest.int "count" 4 (List.length pts);
  let first = List.hd pts and last = List.nth pts 3 in
  check feq "fmin" 100.0 first.Operating_point.freq_mhz;
  check feq "fmax" 400.0 last.Operating_point.freq_mhz;
  check feq "vmin" 0.8 first.Operating_point.voltage;
  (* levels ascend *)
  List.iteri (fun i p -> check Alcotest.int "level" i p.Operating_point.level) pts

let test_scaling_factors () =
  let pts = Operating_point.ladder ~n:2 ~fmin:200.0 ~fmax:400.0 ~vmin:0.6 ~vmax:1.2 in
  let lo = List.hd pts and hi = List.nth pts 1 in
  check feq "dynamic quarter" 0.25 (Operating_point.dynamic_scale ~nominal:hi lo);
  check feq "leakage half" 0.5 (Operating_point.leakage_scale ~nominal:hi lo);
  check feq "cycles stretch" 2.0
    (Operating_point.ns_of_cycles lo 100 /. Operating_point.ns_of_cycles hi 100);
  (* only the compute share of a region stretches with the clock *)
  List.iter
    (fun (mu, p, want) ->
      check feq
        (Printf.sprintf "slowdown mu=%.1f at L%d" mu p.Operating_point.level)
        want
        (Operating_point.slowdown ~nominal:hi ~mu p))
    [ (0.0, lo, 2.0); (0.5, lo, 1.5); (1.0, lo, 1.0); (0.5, hi, 1.0) ]

(* ---------------- power model ---------------- *)

let test_break_even_monotone_in_leakage () =
  let normal = Power_model.default () in
  let leaky = Power_model.leaky () in
  let nominal = Power_model.nominal normal in
  List.iter
    (fun c ->
      if Component.gateable c then begin
        let be_n = Power_model.break_even_cycles normal ~comp:c ~point:nominal in
        let be_l =
          Power_model.break_even_cycles leaky
            ~comp:c ~point:(Power_model.nominal leaky)
        in
        if be_l >= be_n then
          Alcotest.failf "%s: leakier node should gate sooner (%d vs %d)"
            (Component.to_string c) be_l be_n
      end)
    Component.all

let test_break_even_scales_with_gate_cost () =
  let pm = Power_model.default () in
  let expensive = Power_model.with_gate_energy pm 20.0 in
  let nominal = Power_model.nominal pm in
  let be = Power_model.break_even_cycles pm ~comp:Component.Fpu ~point:nominal in
  let be' =
    Power_model.break_even_cycles expensive ~comp:Component.Fpu ~point:nominal
  in
  if be' <= be then fail "higher transition cost must raise the threshold"

let test_dynamic_energy_scales () =
  let pm = Power_model.default () in
  let pts = Power_model.points pm in
  let lo = List.hd pts and hi = Power_model.nominal pm in
  let e_lo = Power_model.dynamic_energy pm ~comp:Component.Alu ~point:lo ~ops:100 in
  let e_hi = Power_model.dynamic_energy pm ~comp:Component.Alu ~point:hi ~ops:100 in
  if e_lo >= e_hi then fail "lower voltage must cost less dynamic energy"

let test_leakage_energy_positive () =
  let pm = Power_model.default () in
  let nominal = Power_model.nominal pm in
  List.iter
    (fun c ->
      let e = Power_model.leakage_energy pm ~comp:c ~point:nominal ~ns:1000.0 in
      if e <= 0.0 then Alcotest.failf "no leakage for %s" (Component.to_string c))
    Component.all

(* ---------------- ledger ---------------- *)

let test_ledger_accounting () =
  let l = Ledger.create () in
  Ledger.charge l ~category:Ledger.Dynamic ~component:Component.Alu 5.0;
  Ledger.charge l ~category:Ledger.Dynamic ~component:Component.Fpu 3.0;
  Ledger.charge l ~category:Ledger.Leakage_idle 2.0;
  check feq "total" 10.0 (Ledger.total l);
  check feq "dynamic" 8.0 (Ledger.of_category l Ledger.Dynamic);
  check feq "alu" 5.0 (Ledger.of_component l Component.Alu);
  Alcotest.check_raises "negative charge"
    (Invalid_argument "Energy_ledger.charge: negative energy") (fun () ->
      Ledger.charge l ~category:Ledger.Dynamic (-1.0))

let test_ledger_merge () =
  let a = Ledger.create () and b = Ledger.create () in
  Ledger.charge a ~category:Ledger.Dynamic 1.0;
  Ledger.charge b ~category:Ledger.Dynamic 2.0;
  Ledger.charge b ~category:Ledger.Communication 4.0;
  Ledger.merge_into ~dst:a ~src:b;
  check feq "merged total" 7.0 (Ledger.total a);
  check feq "merged comm" 4.0 (Ledger.of_category a Ledger.Communication)

(* ---------------- machine ---------------- *)

let test_machine_presets () =
  let g = Machine.generic ~n_cores:4 () in
  check Alcotest.int "generic cores" 4 (Machine.n_cores g);
  let p = Machine.pac_duo_like () in
  check Alcotest.int "pac duo cores" 2 (Machine.n_cores p);
  if Machine.has_component p Component.Fpu then fail "pac duo has no FPU";
  if not (Machine.has_component p Component.Mac) then fail "pac duo has a MAC";
  let o = Machine.octa_leaky () in
  check Alcotest.int "octa cores" 8 (Machine.n_cores o)

let test_machine_with_cores () =
  let m = Machine.with_cores (Machine.generic ()) 6 in
  check Alcotest.int "resized" 6 (Machine.n_cores m)

let test_machine_validation () =
  Alcotest.check_raises "zero cores"
    (Invalid_argument "Machine: n_cores must be >= 1") (fun () ->
      ignore (Machine.generic ~n_cores:0 ()))

(* qcheck: the ledger total always equals the sum of categories *)
let prop_ledger_total =
  QCheck.Test.make ~count:200 ~name:"ledger total = sum of categories"
    QCheck.(list_of_size Gen.(0 -- 30) (pair (int_range 0 5) (float_bound_inclusive 100.0)))
    (fun charges ->
      let l = Ledger.create () in
      List.iter
        (fun (ci, e) ->
          Ledger.charge l ~category:(List.nth Ledger.all_categories ci) e)
        charges;
      let sum =
        List.fold_left (fun acc (_, e) -> acc +. e) 0.0
          (Ledger.breakdown l)
      in
      abs_float (sum -. Ledger.total l) < 1e-6)

let suite =
  [
    Alcotest.test_case "component roundtrip" `Quick test_component_roundtrip;
    Alcotest.test_case "component gateable" `Quick test_component_gateable;
    Alcotest.test_case "operating point ladder" `Quick test_ladder;
    Alcotest.test_case "scaling factors" `Quick test_scaling_factors;
    Alcotest.test_case "break-even vs leakage" `Quick test_break_even_monotone_in_leakage;
    Alcotest.test_case "break-even vs gate cost" `Quick test_break_even_scales_with_gate_cost;
    Alcotest.test_case "dynamic energy scaling" `Quick test_dynamic_energy_scales;
    Alcotest.test_case "leakage positive" `Quick test_leakage_energy_positive;
    Alcotest.test_case "ledger accounting" `Quick test_ledger_accounting;
    Alcotest.test_case "ledger merge" `Quick test_ledger_merge;
    Alcotest.test_case "machine presets" `Quick test_machine_presets;
    Alcotest.test_case "machine with_cores" `Quick test_machine_with_cores;
    Alcotest.test_case "machine validation" `Quick test_machine_validation;
    QCheck_alcotest.to_alcotest prop_ledger_total;
  ]

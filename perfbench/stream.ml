(* The stream workload: the Figure 13 GCN and LU pipelines under every
   runtime policy, LU with tile 0 dying mid-stream under every recovery
   policy, and a four-tenant fleet under every allocator policy at a
   mid power cap.  Set-up is partitioning and fleet planning; the batch
   is the Algorithm 3 controller windows, fault recovery and tenancy
   arbitration — the layers no other workload reaches. *)

open Iced_stream
module Tenant = Iced_tenancy.Tenant
module Scheduler = Iced_tenancy.Scheduler
module Allocator = Iced_tenancy.Allocator
module F = Iced_fault.Fault
module H = Harness

(* stream lengths: long enough that every policy adapts over many
   windows, short enough for several batches a run *)
let gcn_inputs = 600
let lu_inputs = 150
let tenants = 4
let tenant_inputs = 120

(* mid cap: the middle of the tenancy bench's cap-fraction ladder *)
let cap_fraction = 0.7

type app = { name : string; partition : Partition.t; inputs : Pipeline.input list }

type env = { apps : app list; plan : Scheduler.plan }

let prepare name pipeline inputs =
  (* profile on a stratified sample, as Figure 13 does *)
  let step = max 1 (List.length inputs / 50) in
  let profile = List.filteri (fun i _ -> i mod step = 0) inputs in
  match
    H.call "partition" (fun () -> Partition.prepare Iced_arch.Cgra.iced_6x6 pipeline ~profile)
  with
  | Ok partition -> { name; partition; inputs }
  | Error msg -> failwith (Printf.sprintf "stream %s: %s" name msg)

let setup ~seed () =
  let rng = Iced_util.Rng.create seed in
  let gcn_seed = Iced_util.Rng.int rng 1_000_000 in
  let lu_seed = Iced_util.Rng.int rng 1_000_000 in
  let fleet_seed = Iced_util.Rng.int rng 1_000_000 in
  let gcn =
    prepare "gcn" (Pipeline.gcn ())
      (List.map Pipeline.of_gcn_graph
         (Workload.enzyme_graphs ~count:gcn_inputs ~seed:gcn_seed ()))
  in
  let lu =
    prepare "lu" (Pipeline.lu ())
      (List.map Pipeline.of_lu_matrix (Workload.ufl_matrices ~count:lu_inputs ~seed:lu_seed ()))
  in
  let fleet = Tenant.synthetic_mix ~inputs:tenant_inputs ~seed:fleet_seed ~count:tenants () in
  match H.call "tenancy.plan" (fun () -> Scheduler.plan fleet) with
  | Ok plan -> { apps = [ gcn; lu ]; plan }
  | Error msg -> failwith ("stream: planning the fleet: " ^ msg)

let recoveries = [ Runner.Remap; Runner.Gate_island; Runner.Raise_level; Runner.Fail_stop ]

type batch = {
  ops_ms : float list;
  good : int;
  eff : (string * float * float) list;  (** app, ICED and DRIPS efficiency *)
  retention : float;  (** LU throughput retained by remapping around tile 0 *)
  jain : float;  (** fairness of the capped fleet under fair-share *)
  windows : int;
  inputs : int;
  rounds : int;
  infeasible_rounds : int;
  digest : string list;  (** every report, rendered exactly *)
}

let batch env () =
  let ops = ref [] in
  let op name f =
    let (v, errors), s =
      H.time (fun () -> try f () with e -> (None, [ "raised " ^ Printexc.to_string e ]))
    in
    H.record ~op:("stream " ^ name) errors;
    ops := (s *. 1e3, errors = []) :: !ops;
    v
  in
  let windows = ref 0 and streamed = ref 0 and digest = ref [] in
  (* account one run's reports; returns the inputs it consumed *)
  let note name reports =
    let consumed =
      List.fold_left (fun acc (w : Runner.window_report) -> acc + w.inputs) 0 reports
    in
    windows := !windows + List.length reports;
    streamed := !streamed + consumed;
    let t = Runner.aggregate reports in
    digest :=
      Printf.sprintf "%s %d %.17g %.17g" name t.total_inputs t.total_time_us
        t.total_energy_uj
      :: !digest;
    consumed
  in
  let totals app policy =
    let name = app.name ^ "/" ^ Runner.policy_to_string policy in
    op name (fun () ->
        let reports = H.call "runner" (fun () -> Runner.run app.partition policy app.inputs) in
        let consumed = note name reports in
        ( Some (Runner.aggregate reports),
          H.expect (consumed = List.length app.inputs) "not every input was consumed" ))
  in
  let policies = [ Runner.Static; Runner.Iced_dvfs; Runner.Drips ] in
  let runs = List.map (fun app -> (app.name, List.map (fun p -> (p, totals app p)) policies)) env.apps in
  let eff =
    List.map
      (fun (name, by_policy) ->
        match (List.assoc Runner.Iced_dvfs by_policy, List.assoc Runner.Drips by_policy) with
        | Some (i : Runner.totals), Some (d : Runner.totals) ->
          H.record ~op:("stream " ^ name ^ " iced beats drips")
            (H.expect (i.overall_efficiency > d.overall_efficiency)
               (Printf.sprintf "ICED %.4g inputs/s/W vs DRIPS %.4g" i.overall_efficiency
                  d.overall_efficiency));
          (name, i.overall_efficiency, d.overall_efficiency)
        | _ -> (name, nan, nan))
      runs
  in
  let lu = List.find (fun a -> a.name = "lu") env.apps in
  (* retention is measured against the fault-free ICED run *)
  let baseline_tput =
    match List.assoc Runner.Iced_dvfs (List.assoc "lu" runs) with
    | Some (t : Runner.totals) -> t.overall_throughput_per_s
    | None -> nan
  in
  let plan = F.make [ { F.at_input = List.length lu.inputs / 2; fault = F.Tile_dead 0 } ] in
  let retentions =
    List.map
      (fun recovery ->
        let name = "lu/tile0/" ^ Runner.recovery_to_string recovery in
        let r =
          op name (fun () ->
              let reports, stats =
                H.call "runner" (fun () ->
                    Runner.run_resilient ~faults:plan ~recovery lu.partition Runner.Iced_dvfs
                      lu.inputs)
              in
              ignore (note name reports);
              let t = Runner.aggregate reports in
              let retention =
                float_of_int stats.Runner.completed /. float_of_int stats.offered
                *. Float.min 1.0 (t.overall_throughput_per_s /. baseline_tput)
              in
              ( Some retention,
                H.expect (stats.injected = 1) "the tile fault did not fire"
                @ H.expect
                    (stats.completed + stats.inputs_dropped = stats.offered)
                    "completed + dropped <> offered"
                @
                if recovery = Runner.Remap then
                  H.expect (stats.completed = stats.offered) "remap lost inputs"
                  @ H.expect (retention >= 0.5) "remap kept under half the throughput"
                else [] ))
        in
        (recovery, r))
      recoveries
  in
  let cap_mw = cap_fraction *. Scheduler.max_envelope_mw env.plan in
  let fleet =
    List.map
      (fun policy ->
        let name = "fleet/" ^ Allocator.policy_to_string policy in
        ( policy,
          op name (fun () ->
              let r = H.call "tenancy.run" (fun () -> Scheduler.run ~cap_mw ~policy env.plan) in
              digest := (name ^ " " ^ Scheduler.report_json r) :: !digest;
              ( Some r,
                H.expect r.Scheduler.cap_ok "measured power exceeded the cap in a feasible round"
                @ H.expect (Scheduler.starved r = [])
                    ("starved tenants: " ^ String.concat "," (Scheduler.starved r)) )) ))
      Allocator.all_policies
  in
  let reports = List.filter_map snd fleet in
  {
    ops_ms = List.rev_map fst !ops;
    good = List.length (List.filter snd !ops);
    eff;
    retention = Option.value ~default:nan (List.assoc Runner.Remap retentions);
    jain =
      (match List.assoc Allocator.Fair_share fleet with
      | Some (r : Scheduler.report) -> r.fairness
      | None -> nan);
    windows = !windows;
    inputs = !streamed;
    rounds = List.fold_left (fun acc (r : Scheduler.report) -> acc + List.length r.rounds) 0 reports;
    infeasible_rounds =
      List.fold_left (fun acc (r : Scheduler.report) -> acc + r.infeasible_rounds) 0 reports;
    digest = List.rev !digest;
  }

let iced_vs_drips b =
  Iced_util.Stats.geomean (List.map (fun (_, i, d) -> i /. d) b.eff)

let counters b =
  [ ("reports", Iced_util.Fnv.to_hex (Iced_util.Fnv.hash_string (String.concat "\n" b.digest)));
    ("iced_vs_drips_eff", Printf.sprintf "%.17g" (iced_vs_drips b));
    ("fault_retention", Printf.sprintf "%.17g" b.retention);
    ("tenancy_jain", Printf.sprintf "%.17g" b.jain);
    ("windows", string_of_int b.windows); ("rounds", string_of_int b.rounds) ]

(* the II of every mapping the runs execute: each app's allocated
   kernels and each tenant's planned partition *)
let iis env =
  let allocated (p : Partition.t) =
    List.map
      (fun (label, _) -> (Partition.allocated p label).mapping.Iced_mapper.Mapping.ii)
      p.allocation
  in
  List.concat_map (fun a -> allocated a.partition) env.apps
  @ List.concat_map
      (fun (pl : Scheduler.placement) -> allocated (List.assoc pl.islands pl.partitions))
      env.plan.placements

let run ~seed ~seconds ~traced:_ =
  let env, setups_s = H.setups ~count:3 ~release:ignore (setup ~seed) in
  let runs = H.batches ~seconds ~counters (batch env) in
  let first = fst (List.hd runs) in
  let batches_s = List.map snd runs in
  let n = float_of_int (List.length runs) in
  let setups = float_of_int (List.length setups_s) in
  let runner_s = H.layer_s "runner" /. n in
  let fast = H.fast_per_op (List.map (fun (b, _) -> b.ops_ms) runs) in
  let batch_s = Iced_util.Stats.total fast /. 1e3 in
  {
    H.setups_s;
    batch_s;
    ops_ms = fast;
    goodput_per_s = float_of_int first.good /. batch_s;
    rss_mb = H.peak_rss_mb ();
    iis = iis env;
    counters = counters first;
    summary =
      [ ("stream_s", H.median batches_s, "s");
        ("iced_vs_drips_eff", iced_vs_drips first, "ratio");
        ("fault_retention", first.retention, "ratio");
        ("tenancy_jain", first.jain, "ratio") ];
    layer_metrics =
      [ ("partition.s", H.layer_s "partition" /. setups, "s");
        ("partition.words", H.layer_words "partition" /. setups, "words");
        ("tenancy.plan_s", H.layer_s "tenancy.plan" /. setups, "s");
        ("runner.s", runner_s, "s");
        ("runner.words", H.layer_words "runner" /. n, "words");
        ("runner.windows", float_of_int first.windows, "count");
        ("runner.us_per_input", runner_s *. 1e6 /. float_of_int first.inputs, "us");
        ("tenancy.run_s", H.layer_s "tenancy.run" /. n, "s");
        ("tenancy.rounds", float_of_int first.rounds, "count");
        ("tenancy.infeasible_rounds", float_of_int first.infeasible_rounds, "count");
        ("unattributed.s", H.unattributed ~batches_s [ "runner"; "tenancy.run" ], "s") ];
  }

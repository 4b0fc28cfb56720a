(* The compile workload: batch compilation through the layers that make
   up [Design.evaluate], called one by one so each is timed on its own —
   Algorithm 1 labeling, the mapper, island level assignment,
   validation, simulation against the golden interpreter, and the power
   model.  The batch is the ten Table I kernels at all four design
   points and unroll 1 and 2 on the 6x6 prototype, plus seeded
   synthetic kernels on a larger fabric through every backend preset.
   The mapper does almost all of the work here, which makes this the
   workload a mapper optimisation must move. *)

open Iced_arch
open Iced_mapper
module Kernel = Iced_kernels.Kernel
module Design = Iced.Design
module Metrics = Iced_sim.Metrics
module Model = Iced_power.Model
module H = Harness

let golden_path = "test/golden/mapper_golden.txt"

(* Synthetic part: 9-node kernels.  Annealing spends its whole move
   budget on every II it tries, so once a graph is big enough to need
   an II bump (one in six at 12 nodes on 8x8, most at 24) its cost
   jumps tenfold, and the batch time would follow the seed's luck
   rather than the code.  At 9 nodes every seed maps at the first II
   and the annealer's per-move cost is what is measured. *)
let synth_fabric = Cgra.make ~rows:8 ~cols:8 ()
let synth_kernels = 3
let synth_nodes = 9

let backends = [ Backend.default; Backend.sa; Backend.pathfinder ]

type job = {
  kernel : Kernel.t;
  point : Design.point;
  unroll : int;
  fabric : Cgra.t;
  backend : Backend.t;
  golden : string option;  (** pinned fingerprint, when the corpus has one *)
}

let synthetic j = Iced_kernels.Synth.parse_name j.kernel.Kernel.name <> None

let job_name j =
  Printf.sprintf "%s/%s/u%d/%dx%d/%s" j.kernel.Kernel.name
    (Design.point_to_string j.point) j.unroll (Cgra.tile_count j.fabric)
    (List.length (Cgra.islands j.fabric))
    (Backend.to_string j.backend)

let load_golden () =
  let table = Hashtbl.create 80 in
  let ic = open_in golden_path in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line '\t' with
       | Some i ->
         Hashtbl.replace table (String.sub line 0 i)
           (String.sub line (i + 1) (String.length line - i - 1))
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  table

(* The golden corpus maps unroll-1 Table I kernels on the 6x6 fabric
   with the default backend, conventionally (baseline points) and
   DVFS-aware (ICED); per-tile DVFS re-islands the fabric, so it has no
   corpus line. *)
let golden_key (kernel : Kernel.t) point =
  match point with
  | Design.Baseline | Design.Baseline_gated ->
    Some (Printf.sprintf "kernel:%s:6x6:conv" kernel.name)
  | Design.Iced -> Some (Printf.sprintf "kernel:%s:6x6:dvfs" kernel.name)
  | Design.Per_tile -> None

let setup ~seed () =
  let golden = load_golden () in
  let table =
    List.concat_map
      (fun (kernel : Kernel.t) ->
        List.concat_map
          (fun point ->
            List.map
              (fun unroll ->
                let golden =
                  if unroll <> 1 then None
                  else
                    Option.map
                      (fun key ->
                        match Hashtbl.find_opt golden key with
                        | Some fp -> fp
                        | None -> failwith ("golden corpus has no line " ^ key))
                      (golden_key kernel point)
                in
                { kernel; point; unroll; fabric = Cgra.iced_6x6; backend = Backend.default;
                  golden })
              [ 1; 2 ])
          Design.all_points)
      Iced_kernels.Registry.standalone
  in
  let rng = Iced_util.Rng.create seed in
  let synth =
    List.concat_map
      (fun _ ->
        let kernel =
          Iced_kernels.Synth.kernel ~nodes:synth_nodes ~seed:(Iced_util.Rng.int rng 1_000_000)
        in
        List.map
          (fun backend ->
            { kernel; point = Design.Iced; unroll = 1; fabric = synth_fabric; backend;
              golden = None })
          backends)
      (List.init synth_kernels Fun.id)
  in
  table @ synth

(* Design.evaluate's per-point choices, spelled out so each layer can be
   called (and timed) separately. *)
let strategy = function
  | Design.Baseline | Design.Baseline_gated | Design.Per_tile -> Mapper.Conventional
  | Design.Iced -> Mapper.Dvfs_aware

let assign_levels point mapping =
  match point with
  | Design.Baseline -> Levels.all_normal mapping
  | Design.Baseline_gated -> Levels.normal_with_gating mapping
  | Design.Per_tile | Design.Iced -> Levels.assign mapping

let model_design = function
  | Design.Baseline -> Model.Baseline
  | Design.Baseline_gated -> Model.Baseline_gated
  | Design.Per_tile -> Model.Per_tile_dvfs
  | Design.Iced -> Model.Iced

(* Synth draws both operands of a binary op independently and the graph
   keeps one edge when they coincide, leaving an op the simulator cannot
   evaluate.  Such a graph has no reference trace, so its mappings are
   counted as unsimulable instead of failed; any other simulator error
   is a failure. *)
let binary_ops = Iced_dfg.Op.[ Add; Sub; Mul; And; Or; Xor; Shl; Shr ]

let repeated_operand dfg =
  List.exists
    (fun id ->
      List.mem (Iced_dfg.Graph.node dfg id).Iced_dfg.Graph.op binary_ops
      && List.length (Iced_dfg.Graph.predecessors dfg id) < 2)
    (Iced_dfg.Graph.node_ids dfg)

type outcome = { ii : int; power_mw : float; unsimulable : bool }

let run_job ~stats j =
  let fabric = if j.point = Design.Per_tile then Cgra.per_tile j.fabric else j.fabric in
  let dfg = Kernel.dfg_at j.kernel ~factor:j.unroll in
  let tiles = List.init (Cgra.tile_count fabric) Fun.id in
  let label_errors =
    match j.point with
    | Design.Iced ->
      let ii = Iced_dfg.Analysis.min_ii dfg ~tiles:(List.length tiles) in
      let labels = H.call "labeling" (fun () -> Labeling.label dfg ~cgra:fabric ~tiles ~ii) in
      H.expect
        (List.length labels = List.length (Iced_dfg.Graph.node_ids dfg))
        "labeling did not cover every node"
    | _ -> []
  in
  let req = Mapper.request ~strategy:(strategy j.point) ~backend:j.backend fabric in
  match H.call "mapper" (fun () -> Mapper.map ~stats req dfg) with
  | Error msg -> (None, label_errors @ [ "unmapped: " ^ msg ])
  | Ok raw ->
    let golden_errors =
      match j.golden with
      | None -> []
      | Some fp ->
        H.expect (Iced_testgen.Diff_gen.fingerprint raw = fp)
          "mapping differs from its golden corpus line"
    in
    let mapping = H.call "levels" (fun () -> assign_levels j.point raw) in
    let valid_errors =
      match H.call "validate" (fun () -> Validate.check mapping) with
      | Ok () -> []
      | Error msgs -> [ "invalid: " ^ String.concat "; " msgs ]
    in
    let sim_errors, unsimulable =
      H.call "sim" (fun () ->
          let binding = j.kernel.binding in
          match
            let golden = Iced_sim.Sim.interpret ~binding mapping.Mapping.dfg ~iterations:25 in
            (Iced_sim.Sim.run ~binding mapping ~iterations:25, golden)
          with
          | exception Invalid_argument _
            when synthetic j && repeated_operand dfg ->
            ([], true)
          | result, golden ->
            ( H.expect (result.violations = [])
                (Printf.sprintf "%d timing violations" (List.length result.violations))
              @ H.expect (result.stores = golden)
                  "store trace differs from the golden interpreter",
              false ))
    in
    let power_mw =
      H.call "power" (fun () ->
          Model.total_power_mw Iced_power.Params.default (model_design j.point) fabric
            ~tiles:(Metrics.tile_states mapping)
            ~sram_activity:(Metrics.sram_activity mapping))
    in
    ( Some { ii = mapping.Mapping.ii; power_mw; unsimulable },
      label_errors @ golden_errors @ valid_errors @ sim_errors )

type batch = {
  outcomes : (job * outcome option) list;
  stats : Mapper.stats;
  ops_ms : float list;
  good : int;  (** jobs that passed every check *)
}

let batch jobs () =
  let stats = Mapper.create_stats () in
  let ops =
    List.map
      (fun j ->
        let (outcome, errors), s =
          H.time (fun () ->
              try run_job ~stats j
              with e -> (None, [ "raised " ^ Printexc.to_string e ]))
        in
        H.record ~op:("compile " ^ job_name j) errors;
        ((j, outcome), s *. 1e3, errors = []))
      jobs
  in
  {
    outcomes = List.map (fun (o, _, _) -> o) ops;
    stats;
    ops_ms = List.map (fun (_, ms, _) -> ms) ops;
    good = List.length (List.filter (fun (_, _, ok) -> ok) ops);
  }

let iis b = List.filter_map (fun (_, o) -> Option.map (fun o -> o.ii) o) b.outcomes

let unsimulable b =
  List.length
    (List.filter (fun (_, o) -> match o with Some o -> o.unsimulable | None -> false)
       b.outcomes)

(* geomean power of the ICED point over Table I *)
let iced_power_mw b =
  Iced_util.Stats.geomean
    (List.filter_map
       (fun (j, o) ->
         match o with
         | Some o when j.point = Design.Iced && not (synthetic j) -> Some o.power_mw
         | _ -> None)
       b.outcomes)

let counters b =
  let s = b.stats in
  [ ("iis", String.concat "," (List.map string_of_int (iis b)));
    ("power_mw_geomean", Printf.sprintf "%.17g" (iced_power_mw b));
    ("attempts", string_of_int s.attempts);
    ("ii_bumps", string_of_int s.ii_bumps);
    ("placements_tried", string_of_int s.placements_tried);
    ("route_calls", string_of_int s.route_calls);
    ("route_failures", string_of_int s.route_failures);
    ("expansions", string_of_int s.expansions);
    ("sa_moves", Printf.sprintf "%d/%d" s.sa_moves_accepted s.sa_moves_rejected);
    ("sa_temp_steps", string_of_int s.sa_temp_steps);
    ("pf", Printf.sprintf "%d/%d" s.pf_rounds s.pf_overflow);
    ("unsimulable", string_of_int (unsimulable b)) ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let run ~seed ~seconds ~traced:_ =
  let jobs, setups_s = H.setups ~count:21 ~release:ignore (setup ~seed) in
  let runs = H.batches ~seconds ~counters (batch jobs) in
  let first = fst (List.hd runs) in
  let batches_s = List.map snd runs in
  let n = float_of_int (List.length runs) in
  let fast = H.fast_per_op (List.map (fun (b, _) -> b.ops_ms) runs) in
  let batch_s = Iced_util.Stats.total fast /. 1e3 in
  let compile_s = H.median batches_s in
  let s = first.stats in
  let per_batch name = H.layer_s name /. n in
  let words name = H.layer_words name /. n in
  {
    H.setups_s;
    batch_s;
    ops_ms = fast;
    goodput_per_s = float_of_int first.good /. batch_s;
    rss_mb = H.peak_rss_mb ();
    iis = iis first;
    counters = counters first;
    summary =
      [ ("compile_s", compile_s, "s");
        ("power_mw_geomean", iced_power_mw first, "mW");
        ("synth_unsimulable", float_of_int (unsimulable first), "count") ];
    layer_metrics =
      List.concat_map
        (fun l -> [ (l ^ ".s", per_batch l, "s"); (l ^ ".words", words l, "words") ])
        [ "labeling"; "mapper"; "levels"; "validate"; "sim" ]
      @ [ ("power.s", per_batch "power", "s");
          ( "unattributed.s",
            H.unattributed ~batches_s
              [ "labeling"; "mapper"; "levels"; "validate"; "sim"; "power" ],
            "s" );
          ("mapper.attempts", float_of_int s.attempts, "count");
          ("mapper.ii_bumps", float_of_int s.ii_bumps, "count");
          ("mapper.placements_tried", float_of_int s.placements_tried, "count");
          ("mapper.route_calls", float_of_int s.route_calls, "count");
          ("mapper.route_fail_ratio", ratio s.route_failures s.route_calls, "ratio");
          ("mapper.expansions", float_of_int s.expansions, "count");
          ("mapper.expansions_per_route", ratio s.expansions s.route_calls, "ratio");
          ( "mapper.sa_accept_ratio",
            ratio s.sa_moves_accepted (s.sa_moves_accepted + s.sa_moves_rejected),
            "ratio" );
          ("mapper.sa_temp_steps", float_of_int s.sa_temp_steps, "count");
          ("mapper.pf_rounds", float_of_int s.pf_rounds, "count");
          ("mapper.pf_overflow", float_of_int s.pf_overflow, "count") ];
  }

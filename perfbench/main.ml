(* The repository benchmark.

     main.exe --workload <compile|certify|serve|stream> --seed N
              --seconds S --trace <0|1> [--selfcheck]

   Runs one seeded workload for about S seconds and prints, as the last
   line of standard output, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  A traced run
   spends half its time untraced and half traced, so the tracing
   overhead is the difference of the two, and writes a Chrome trace and
   a flame summary under .bench_out/.  --selfcheck runs the workload twice with the same
   seed and fails unless every deterministic counter repeats.  The exit
   code is 0 only when every operation passed its correctness checks.
   See perfbench/README.md for the workloads and metrics. *)

module H = Harness
module Trace = Iced_obs.Trace
module Export = Iced_obs.Export

let workloads =
  [ ("compile", Compile.run); ("certify", Certify.run); ("serve", Serve.run);
    ("stream", Stream.run) ]

(* Every per-layer metric, in BENCHMARK.json order; a workload that
   does not exercise a layer reports it as 0. *)
let per_layer =
  [ ("labeling.s", "s"); ("labeling.words", "words"); ("mapper.s", "s");
    ("mapper.words", "words"); ("mapper.attempts", "count"); ("mapper.ii_bumps", "count");
    ("mapper.placements_tried", "count"); ("mapper.route_calls", "count");
    ("mapper.route_fail_ratio", "ratio"); ("mapper.expansions", "count");
    ("mapper.expansions_per_route", "ratio"); ("mapper.sa_accept_ratio", "ratio");
    ("mapper.sa_temp_steps", "count"); ("mapper.pf_rounds", "count");
    ("mapper.pf_overflow", "count"); ("levels.s", "s"); ("levels.words", "words");
    ("validate.s", "s"); ("validate.words", "words"); ("sim.s", "s");
    ("sim.words", "words"); ("power.s", "s") ]
  @ [ ("exact.s", "s"); ("exact.conflicts", "count"); ("exact.decisions", "count");
      ("exact.propagations", "count"); ("exact.restarts", "count");
      ("exact.route_blocks", "count"); ("exact.vars", "count"); ("exact.clauses", "count") ]
  @ List.concat_map
      (fun k -> [ ("exact." ^ k ^ ".s", "s"); ("exact." ^ k ^ ".conflicts", "count") ])
      Certify.kernel_names
  @ [ ("partition.s", "s"); ("partition.words", "words"); ("tenancy.plan_s", "s");
      ("runner.s", "s"); ("runner.words", "words"); ("runner.windows", "count");
      ("runner.us_per_input", "us"); ("tenancy.run_s", "s"); ("tenancy.rounds", "count");
      ("tenancy.infeasible_rounds", "count") ]
  @ [ ("serve.hit.p50_ms", "ms"); ("serve.hit.p99_ms", "ms"); ("serve.miss.p50_ms", "ms");
      ("serve.miss.p99_ms", "ms"); ("serve.ping.p50_ms", "ms");
      ("serve.ping.p99_ms", "ms"); ("daemon.p50_ms", "ms"); ("daemon.p99_ms", "ms");
      ("daemon.queue_length", "count"); ("daemon.dedup_hits", "count");
      ("daemon.dedup_misses", "count"); ("daemon.coalesced", "count");
      ("daemon.shed", "count"); ("cache.wal_bytes", "bytes");
      ("loadgen.lag_p99_ms", "ms"); ("protocol.decode_us", "us");
      ("server.handle_hit_us", "us") ]
  @ [ ("unattributed.s", "s"); ("trace.overhead_s", "s"); ("trace.p50_overhead_ms", "ms") ]

let end_to_end (r : H.result) =
  [ ("setup_s", H.median r.setups_s, "s");
    ("batch_s", r.batch_s, "s");
    ("p50_ms", H.median r.ops_ms, "ms");
    ("goodput_per_s", r.goodput_per_s, "1/s");
    ("peak_rss_mb", r.rss_mb, "MB");
    ("ii_geomean", H.geomean_int r.iis, "II") ]

let number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!H.failed = 0) !H.attempted !H.failed body

let print_summary ~workload ~seed (r : H.result) =
  Printf.printf "# %s seed=%d ops=%d\n" workload seed (List.length r.ops_ms);
  List.iter
    (fun (name, v, unit) -> Printf.printf "#   %-22s %s %s\n" name (number v) unit)
    (r.summary @ end_to_end r
    @ [ ("failed_frac", float_of_int !H.failed /. float_of_int (max 1 !H.attempted), "ratio") ]);
  let digest =
    Iced_util.Fnv.to_hex
      (Iced_util.Fnv.hash_string
         (String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) r.counters)))
  in
  Printf.printf "# counters digest=%s (%d counters)\n%!" digest (List.length r.counters)

let write_trace ~workload ~seed =
  let events = Trace.events () in
  H.ensure_out_dir ();
  let base = Filename.concat H.out_dir (Printf.sprintf "%s-%d" workload seed) in
  Export.write_file ~path:(base ^ ".trace.json") (Export.trace_json events);
  Export.write_file ~path:(base ^ ".flame.txt") (Export.flame_summary events);
  Printf.printf "# wrote %s.trace.json and %s.flame.txt (%d events, %d dropped)\n%!" base
    base (List.length events) (Trace.dropped ())

(* The traced run splits [seconds] between an untraced and a traced
   half, so it costs what an untraced run costs. *)
let traced_metrics ~workload ~seed ~seconds run =
  let seconds = seconds /. 2.0 in
  let plain = run ~seed ~seconds ~traced:false in
  H.reset_layers ();
  Trace.start ();
  let traced =
    Fun.protect ~finally:Trace.stop (fun () -> run ~seed ~seconds ~traced:true)
  in
  write_trace ~workload ~seed;
  print_summary ~workload ~seed traced;
  let derived =
    [ ("trace.overhead_s", traced.H.batch_s -. plain.H.batch_s, "s");
      ( "trace.p50_overhead_ms",
        H.median traced.ops_ms -. H.median plain.H.ops_ms,
        "ms" ) ]
  in
  let measured = traced.layer_metrics @ derived in
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) measured with
      | Some m -> m
      | None -> (name, 0.0, unit))
    per_layer

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let selfcheck = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME compile|certify|serve|stream");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--selfcheck", Arg.Set selfcheck, " run twice and compare deterministic counters") ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
  let seconds = float_of_int (max 1 !seconds) in
  let workload = !workload and seed = !seed in
  let metrics =
    if !selfcheck then begin
      let a = run ~seed ~seconds ~traced:false in
      let b = run ~seed ~seconds ~traced:false in
      List.iter2
        (fun (k, va) (_, vb) ->
          H.record ~op:("selfcheck " ^ k)
            (H.expect (va = vb) (Printf.sprintf "%s: %s vs %s" k va vb)))
        a.counters b.counters;
      print_summary ~workload ~seed b;
      end_to_end b
    end
    else if !trace = 1 then traced_metrics ~workload ~seed ~seconds run
    else begin
      let r = run ~seed ~seconds ~traced:false in
      print_summary ~workload ~seed r;
      end_to_end r
    end
  in
  print_result metrics;
  exit (if !H.failed = 0 then 0 else 1)

(* The certify workload: the SAT-backed exact oracle ([Exact.certify])
   over the ten Table I kernels on the 6x6 prototype at the default
   conflict budget.  The CDCL solver, the modulo place-and-route
   encoding and the CEGAR loop (which calls the production router)
   dominate; the heuristic placers never run.  The seed only orders the
   kernels: the oracle's own seed stays at its default so verdicts can
   be checked against the committed fixture. *)

open Iced_mapper
module Kernel = Iced_kernels.Kernel
module H = Harness

let fixture_path = "test/golden/certified_ii.txt"

let kernel_names =
  List.map (fun (k : Kernel.t) -> k.name) Iced_kernels.Registry.standalone

(* kernel -> certified optimal II; a kernel the fixture omits is one the
   oracle leaves undecided *)
let load_fixture () =
  let ic = open_in fixture_path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> acc
    | line when line = "" || line.[0] = '#' -> go acc
    | line -> (
      match String.split_on_char '\t' line with
      | [ name; opt; _ ] -> go ((name, int_of_string opt) :: acc)
      | _ -> failwith ("malformed certified_ii line: " ^ line))
  in
  let rows = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go []) in
  List.rev rows

type env = { kernels : Kernel.t list; fixture : (string * int) list }

let setup ~seed () =
  let fixture = load_fixture () in
  let kernels =
    Iced_util.Rng.shuffle (Iced_util.Rng.create seed) Iced_kernels.Registry.standalone
  in
  { kernels; fixture }

let verdict_to_string = function
  | Exact.Optimal ii -> Printf.sprintf "optimal:%d" ii
  | Exact.Infeasible -> "infeasible"
  | Exact.Unknown { first_undecided; feasible_at } ->
    Printf.sprintf "unknown:%d:%s" first_undecided
      (match feasible_at with Some ii -> string_of_int ii | None -> "-")

(* the best II the oracle vouches for: the optimum, or the bracket's
   upper end (its lower end when nothing was found) *)
let verdict_ii ~max_ii = function
  | Exact.Optimal ii -> ii
  | Exact.Infeasible -> max_ii
  | Exact.Unknown { feasible_at = Some ii; _ } -> ii
  | Exact.Unknown { first_undecided; feasible_at = None } -> first_undecided

let decided = function
  | Exact.Optimal _ | Exact.Infeasible -> true
  | Exact.Unknown _ -> false

type op = { kernel : string; report : Exact.report; ms : float; ok : bool }

let check env (k : Kernel.t) (r : Exact.report) =
  let verdict_errors =
    match (List.assoc_opt k.name env.fixture, r.verdict) with
    | Some want, Exact.Optimal got ->
      H.expect (want = got) (Printf.sprintf "certified II %d, fixture says %d" got want)
    | Some want, v ->
      [ Printf.sprintf "fixture certifies II %d, oracle says %s" want (verdict_to_string v) ]
    | None, (Exact.Optimal _ as v) ->
      [ Printf.sprintf "oracle now says %s; the fixture has no line" (verdict_to_string v) ]
    | None, _ -> []
  in
  let witness_errors =
    match (r.verdict, r.witness) with
    | Exact.Optimal ii, Some w -> (
      H.expect (w.Mapping.ii = ii) "witness II differs from the verdict"
      @
      match H.call "validate" (fun () -> Validate.check w) with
      | Ok () -> []
      | Error msgs -> [ "witness invalid: " ^ String.concat "; " msgs ])
    | Exact.Optimal _, None -> [ "optimal verdict without a witness" ]
    | _, Some _ -> [ "witness without an optimal verdict" ]
    | _, None -> []
  in
  verdict_errors @ witness_errors

(* Kernels whose certification makes fewer SAT decisions than this are
   certified [extra_passes] more times in each batch, so their
   time-to-verdict has several repetitions even though [conv] alone takes
   most of a batch. *)
let cheap_decisions = 50_000
let extra_passes = 8

let certify_one env (k : Kernel.t) =
  let report, s =
    H.time (fun () ->
        H.call ("exact." ^ k.name) (fun () -> Exact.certify Iced_arch.Cgra.iced_6x6 k.dfg))
  in
  let errors = check env k report in
  H.record ~op:("certify " ^ k.name) errors;
  { kernel = k.name; report; ms = s *. 1e3; ok = errors = [] }

type batch = {
  ops : op list;  (** the first pass, in [env.kernels] order *)
  pass_s : float;  (** wall time of the first pass: every verdict once *)
  extra : op list;  (** the cheap kernels' repetitions *)
}

let batch env () =
  let ops, pass_s = H.time (fun () -> List.map (certify_one env) env.kernels) in
  let again =
    List.filter_map
      (fun ((k : Kernel.t), o) -> if o.report.decisions < cheap_decisions then Some k else None)
      (List.combine env.kernels ops)
  in
  let extra = List.concat (List.init extra_passes (fun _ -> List.map (certify_one env) again)) in
  { ops; pass_s; extra }

let by_name ops = List.sort (fun a b -> compare a.kernel b.kernel) ops

let counters ops =
  List.map
    (fun o ->
      let r = o.report in
      ( o.kernel,
        Printf.sprintf "%s conflicts=%d decisions=%d propagations=%d restarts=%d \
                        route_blocks=%d vars=%d clauses=%d"
          (verdict_to_string r.verdict) r.conflicts r.decisions r.propagations r.restarts
          r.route_blocks r.vars r.clauses ))
    (by_name ops)

let run ~seed ~seconds ~traced:_ =
  let env, setups_s = H.setups ~count:21 ~release:ignore (setup ~seed) in
  let runs = H.batches ~seconds ~counters:(fun b -> counters b.ops) (batch env) in
  let first = (fst (List.hd runs)).ops in
  let batches_s = List.map snd runs in
  let certify_s = H.median (List.map (fun (b, _) -> b.pass_s) runs) in
  let n = float_of_int (List.length runs) in
  let sum f = float_of_int (List.fold_left (fun acc o -> acc + f o.report) 0 first) in
  let iis = List.map (fun o -> verdict_ii ~max_ii:o.report.max_ii o.report.verdict) first in
  let decided_frac =
    float_of_int (List.length (List.filter (fun o -> decided o.report.verdict) first))
    /. float_of_int (List.length first)
  in
  (* each kernel's fast time over all its certifications in the run *)
  let fast =
    List.map
      (fun k ->
        H.fast
          (List.concat_map
             (fun (b, _) ->
               List.filter_map
                 (fun (o : op) -> if o.kernel = k then Some o.ms else None)
                 (b.ops @ b.extra))
             runs))
      (List.map (fun o -> o.kernel) first)
  in
  let batch_s = Iced_util.Stats.total fast /. 1e3 in
  (* per certification: cheap kernels run several times a batch *)
  let per_call k =
    let name = "exact." ^ k in
    H.layer_s name /. float_of_int (max 1 (H.layer_calls name))
  in
  let exact_s = List.fold_left (fun acc k -> acc +. per_call k) 0.0 kernel_names in
  {
    H.setups_s;
    batch_s;
    ops_ms = fast;
    goodput_per_s = float_of_int (List.length (List.filter (fun o -> o.ok) first)) /. batch_s;
    rss_mb = H.peak_rss_mb ();
    iis;
    counters = ("decided_frac", Printf.sprintf "%.17g" decided_frac) :: counters first;
    summary =
      [ ("certify_s", certify_s, "s"); ("decided_frac", decided_frac, "ratio") ];
    layer_metrics =
      [ ("exact.s", exact_s, "s");
        ("exact.conflicts", sum (fun r -> r.conflicts), "count");
        ("exact.decisions", sum (fun r -> r.decisions), "count");
        ("exact.propagations", sum (fun r -> r.propagations), "count");
        ("exact.restarts", sum (fun r -> r.restarts), "count");
        ("exact.route_blocks", sum (fun r -> r.route_blocks), "count");
        ("exact.vars", sum (fun r -> r.vars), "count");
        ("exact.clauses", sum (fun r -> r.clauses), "count");
        ("validate.s", H.layer_s "validate" /. n, "s");
        ("validate.words", H.layer_words "validate" /. n, "words");
        ( "unattributed.s",
          H.unattributed ~batches_s ("validate" :: List.map (fun k -> "exact." ^ k) kernel_names),
          "s" ) ]
      @ List.concat_map
          (fun o ->
            [ ("exact." ^ o.kernel ^ ".s", per_call o.kernel, "s");
              ( "exact." ^ o.kernel ^ ".conflicts",
                float_of_int o.report.conflicts,
                "count" ) ])
          (by_name first);
  }

(* Plumbing shared by the four workloads: clocks and quantiles, the
   failure ledger behind [attempted]/[failed], the per-layer call
   accumulators, and the result record every workload returns. *)

module Stats = Iced_util.Stats
module Trace = Iced_obs.Trace

let now = Unix.gettimeofday

(* Where runs leave trace files and the serve daemon's socket and WAL. *)
let out_dir = ".bench_out"

let ensure_out_dir () =
  try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs = Stats.percentile 50.0 xs
let p99 xs = Stats.percentile 99.0 xs

let geomean_int xs = Stats.geomean (List.map float_of_int xs)

(* Peak resident set of [pid] (default: this process) in MB, from the
   kernel's high-water mark. *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* the failure ledger                                                  *)

let attempted = ref 0
let failed = ref 0

(* One checked operation: [errors] lists every check it failed. *)
let record ~op errors =
  incr attempted;
  if errors <> [] then begin
    incr failed;
    List.iter (fun e -> Printf.eprintf "FAIL %s: %s\n%!" op e) errors
  end

let expect cond msg = if cond then [] else [ msg ]

(* ------------------------------------------------------------------ *)
(* per-layer accounting                                                *)

(* Every call the benchmark makes into a library layer goes through
   [call]: a trace span (recorded only while the collector is on) plus
   wall time and minor-heap words added to the layer's totals.  The
   calls never nest, so a layer's total is its self time. *)
type layer = { mutable s : float; mutable words : float; mutable calls : int }

let layers : (string, layer) Hashtbl.t = Hashtbl.create 16

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
    let l = { s = 0.0; words = 0.0; calls = 0 } in
    Hashtbl.add layers name l;
    l

let call name f =
  let l = layer name in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      l.s <- l.s +. (now () -. t0);
      l.words <- l.words +. (Gc.minor_words () -. w0);
      l.calls <- l.calls + 1)
    (fun () -> Trace.with_span ~cat:"perfbench" ~name f)

let reset_layers () = Hashtbl.reset layers

let layer_s name = match Hashtbl.find_opt layers name with Some l -> l.s | None -> 0.0

let layer_calls name =
  match Hashtbl.find_opt layers name with Some l -> l.calls | None -> 0

let layer_words name =
  match Hashtbl.find_opt layers name with Some l -> l.words | None -> 0.0

(* Batch wall time that none of [names] accounts for, per batch. *)
let unattributed ~batches_s names =
  let n = float_of_int (List.length batches_s) in
  Stats.mean batches_s -. (List.fold_left (fun acc name -> acc +. layer_s name) 0.0 names /. n)

(* ------------------------------------------------------------------ *)
(* what a workload run returns                                         *)

type result = {
  setups_s : float list;  (** every set-up timed in the run *)
  batch_s : float;  (** the time of one batch: the sum of its operations' {!fast} times *)
  ops_ms : float list;  (** per-operation latencies *)
  goodput_per_s : float;  (** operations per second that passed every check *)
  rss_mb : float;
  iis : int list;  (** every II the workload produced, one batch *)
  counters : (string * string) list;
      (** deterministic per-seed values: equal across batches and
          same-seed runs *)
  summary : (string * float * string) list;
      (** the workload's own named end-to-end figures (name, value, unit) *)
  layer_metrics : (string * float * string) list;
      (** per-layer figures read after the batches (trace mode) *)
}

(* Run [batch] repeatedly for about [seconds] (at least once; no batch
   is started that would end past the deadline, judging by the last
   one), returning each batch's value and wall time.  Every batch must
   reproduce the first one's deterministic counters. *)
let batches ~seconds ~counters batch =
  let t0 = now () in
  let rec go acc =
    let ((_, last) as r) = time batch in
    let acc = r :: acc in
    if now () -. t0 +. last > seconds then List.rev acc else go acc
  in
  let runs = go [] in
  (match runs with
  | (first, _) :: rest ->
    List.iteri
      (fun i (r, _) ->
        record ~op:(Printf.sprintf "batch %d determinism" (i + 2))
          (expect (counters r = counters first)
             "deterministic counters differ from the first batch"))
      rest
  | [] -> ());
  runs

(* An operation's undisturbed time: the 10th percentile of its
   repetitions' times.  Other tenants of a shared machine slow a run
   down for seconds at a time and only ever add time, so the fast tenth
   of the repetitions is a far steadier estimate of what the operation
   costs than their median, and less at the mercy of one lucky sample
   than their minimum.  Costs every repetition pays, such as allocation
   and the minor collections it triggers, stay in. *)
let fast samples = Stats.percentile 10.0 samples

(* [fast] per operation, given each batch's per-operation times in the
   same order every batch. *)
let fast_per_op per_batch =
  match per_batch with
  | [] -> []
  | first :: _ -> List.mapi (fun i _ -> fast (List.map (fun b -> List.nth b i) per_batch)) first

(* Set up [count] times and keep the last; earlier ones are released
   with [release].  Returns the kept value and every set-up time. *)
let setups ~count ~release setup =
  let rec go i acc =
    let v, s = time setup in
    if i + 1 >= count then (v, List.rev (s :: acc))
    else begin
      release v;
      go (i + 1) (s :: acc)
    end
  in
  go 0 []


(* The serve workload: a daemon forked from this process runs
   [Server.serve_socket] over a Unix socket with a file-backed WAL cache
   and [workers] domains; this process is the only client, on one
   connection, sending a seeded open-loop schedule (Poisson arrivals at
   a fixed mean rate, below saturation).  Most requests repeat a warmed
   map key (the protocol/queue/cache hit path), a small share asks for a
   fresh key from the 960-key space of island shape x floor x unroll x
   kernel (a mapping plus a WAL append), and the rest are pings and an
   occasional stats frame.  Latency is timed from each request's due
   time.  Every reply is checked byte for byte against an in-process
   [Server.handle] of the same frame.  The client never spawns a domain:
   OCaml refuses to fork once one has existed, and a traced run forks
   twice. *)

module Server = Iced_serve.Server
module Protocol = Iced_serve.Protocol
module Lineio = Iced_serve.Lineio
module Cache = Iced_explore.Cache
module Space = Iced_explore.Space
module J = Iced_util.Json
module Rng = Iced_util.Rng
module H = Harness

let rate = 200.0  (* mean requests per second *)
let hot_keys = 40  (* warmed before timing; every hit draws from these *)
let miss_every = 100  (* request positions that ask for a fresh key *)
let stats_every = 1000
let ping_share = 0.10
let latency_limit_ms = 500.0  (* a reply later than this is not goodput *)
let workers = 2
let queue_depth = 1024

(* ------------------------------------------------------------------ *)
(* inputs                                                              *)

type kind = Hit | Miss | Ping | Stats

type request = { kind : kind; frame : Protocol.frame; line : string; due : float }

let key_space () =
  List.concat_map
    (fun (island_rows, island_cols) ->
      List.concat_map
        (fun floor ->
          List.concat_map
            (fun unroll ->
              List.map
                (fun (k : Iced_kernels.Kernel.t) ->
                  ( { Protocol.default_point with Space.island_rows; island_cols; floor; unroll },
                    k.name ))
                Iced_kernels.Registry.standalone)
            [ 1; 2 ])
        Iced_arch.Dvfs.[ Rest; Relax; Normal ])
    (Space.tiling_islands 6 6)

let simple_frame id request = { Protocol.id; request; deadline_ms = None; tenant = None; qos = None }

let map_frame id (point, kernel) =
  simple_frame id (Protocol.Map { point; kernel; backend = Iced_mapper.Backend.default })

(* The hot set, and the fresh keys in the order misses take them:
   round-robin over (kernel, unroll) strata, each stratum's keys
   shuffled, so every seed misses on the same mix of mapping costs and
   only island shapes and floors vary. *)
let draw_keys rng =
  let keys = Rng.shuffle rng (key_space ()) in
  let hot = List.filteri (fun i _ -> i < hot_keys) keys in
  let rest = List.filteri (fun i _ -> i >= hot_keys) keys in
  let strata =
    Rng.shuffle rng
      (List.concat_map
         (fun (k : Iced_kernels.Kernel.t) -> [ (k.name, 1); (k.name, 2) ])
         Iced_kernels.Registry.standalone)
  in
  let queues =
    List.map
      (fun (name, unroll) ->
        ref (List.filter (fun ((p : Space.point), k) -> k = name && p.unroll = unroll) rest))
      strata
  in
  let rec interleave acc =
    let acc, progressed =
      List.fold_left
        (fun (acc, progressed) q ->
          match !q with
          | [] -> (acc, progressed)
          | k :: tl ->
            q := tl;
            (k :: acc, true))
        (acc, false) queues
    in
    if progressed then interleave acc else List.rev acc
  in
  (Array.of_list hot, interleave [])

(* Poisson arrivals, rescaled so the schedule spans exactly [seconds]:
   the request count and the span are the same for every seed. *)
let schedule ~seed ~seconds =
  let rng = Rng.create seed in
  let hot, fresh = draw_keys rng in
  let fresh = ref fresh in
  let n = int_of_float (rate *. seconds) in
  let gaps = Array.init n (fun _ -> -.log (1.0 -. Rng.float rng 1.0)) in
  let scale = seconds /. Array.fold_left ( +. ) 0.0 gaps in
  let t = ref 0.0 in
  let requests =
    Array.mapi
      (fun i gap ->
        t := !t +. (gap *. scale);
        let id = Printf.sprintf "r%d" i in
        let kind, frame =
          if (i + 1) mod stats_every = 0 then (Stats, simple_frame id Protocol.Stats)
          else if (i + 1) mod miss_every = 0 then begin
            let key = List.hd !fresh in
            fresh := List.tl !fresh;
            (Miss, map_frame id key)
          end
          else if Rng.float rng 1.0 < ping_share then (Ping, simple_frame id Protocol.Ping)
          else (Hit, map_frame id hot.(Rng.int rng (Array.length hot)))
        in
        { kind; frame; line = Protocol.encode_request frame; due = !t })
      gaps
  in
  (hot, requests)

(* ------------------------------------------------------------------ *)
(* the connection: one socket, read with select so the sender never    *)
(* blocks on replies                                                   *)

type conn = { fd : Unix.file_descr; w : Lineio.writer; buf : Buffer.t; chunk : Bytes.t }

let send c line = if not (Lineio.write_line c.w line) then failwith "serve: daemon hung up"

(* Complete lines that arrive within [timeout] seconds. *)
let poll c timeout =
  match Unix.select [ c.fd ] [] [] (Float.max 0.0 timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | [], _, _ -> []
  | _ ->
    let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
    if n = 0 then failwith "serve: daemon closed the connection";
    Buffer.add_subbytes c.buf c.chunk 0 n;
    let data = Buffer.contents c.buf in
    let parts = String.split_on_char '\n' data in
    let rec split = function
      | [ partial ] ->
        Buffer.clear c.buf;
        Buffer.add_string c.buf partial;
        []
      | line :: rest -> line :: split rest
      | [] -> []
    in
    split parts

let rec recv c ~deadline =
  if H.now () > deadline then failwith "serve: no reply before the deadline";
  match poll c 0.5 with
  | [] -> recv c ~deadline
  | lines -> lines

let roundtrip c frame =
  send c (Protocol.encode_request frame);
  match recv c ~deadline:(H.now () +. 60.0) with
  | [ line ] -> line
  | lines -> failwith (Printf.sprintf "serve: %d replies to one request" (List.length lines))

(* ------------------------------------------------------------------ *)
(* the daemon                                                          *)

type daemon = { pid : int; dir : string; conn : conn }

let wal_path dir = Filename.concat dir "cache.wal"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* On any failure: kill the daemon, reap it, and remove its files. *)
let abandon ~pid ~dir =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  remove_tree dir

let start ~traced ~trace_base ~tag =
  H.ensure_out_dir ();
  (* a relative socket path stays under the 108-byte sun_path limit
     however deep the checkout is *)
  let dir = Filename.concat H.out_dir (Printf.sprintf "serve-%d-%s" (Unix.getpid ()) tag) in
  remove_tree dir;
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "d.sock" in
  flush stdout;
  flush stderr;
  let client = Unix.getpid () in
  match Unix.fork () with
  | 0 ->
    let code =
      try
        if traced then Iced_obs.Trace.start ();
        let stop = Atomic.make false in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true));
        (* once a second, check the client is alive: a client killed
           from outside must not leave the daemon waiting for the next
           connection forever *)
        Sys.set_signal Sys.sigalrm
          (Sys.Signal_handle
             (fun _ ->
               if Unix.getppid () <> client then Atomic.set stop true;
               ignore (Unix.alarm 1)));
        ignore (Unix.alarm 1);
        let cache = Cache.open_file (wal_path dir) in
        let config =
          { Server.workers; queue_depth; cache; restart_budget = 8; default_deadline_ms = None }
        in
        ignore (Server.serve_socket ~stop:(fun () -> Atomic.get stop) config socket);
        Cache.close cache;
        if Unix.getppid () <> client then remove_tree dir;
        if traced then begin
          Iced_obs.Trace.stop ();
          let events = Iced_obs.Trace.events () in
          Iced_obs.Export.write_file ~path:(trace_base ^ ".trace.json")
            (Iced_obs.Export.trace_json events);
          Iced_obs.Export.write_file ~path:(trace_base ^ ".flame.txt")
            (Iced_obs.Export.flame_summary events)
        end;
        0
      with e ->
        Printf.eprintf "serve daemon: %s\n%!" (Printexc.to_string e);
        1
    in
    exit code
  | pid -> (
    let give_up = H.now () +. 30.0 in
    let rec connect () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> fd
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if H.now () > give_up then failwith "serve: daemon never came up";
        Unix.sleepf 0.002;
        connect ()
    in
    try
      let fd = connect () in
      let conn =
        { fd; w = Lineio.writer fd; buf = Buffer.create 65536; chunk = Bytes.create 65536 }
      in
      let reply = roundtrip conn (simple_frame "setup" Protocol.Ping) in
      if reply <> Protocol.response_ping ~id:"setup" then
        failwith ("serve: bad ping reply " ^ reply);
      { pid; dir; conn }
    with e ->
      abandon ~pid ~dir;
      raise e)

let stop d =
  let reply = roundtrip d.conn (simple_frame "bye" Protocol.Shutdown) in
  Unix.close d.conn.fd;
  (match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "serve: daemon exited abnormally");
  remove_tree d.dir;
  if reply <> Protocol.response_shutdown ~id:"bye" then
    failwith ("serve: bad shutdown reply " ^ reply)

(* ------------------------------------------------------------------ *)
(* one timed schedule                                                  *)

let id_index line =
  match J.parse line with
  | Ok v -> (
    match Option.bind (J.member "id" v) J.get_string with
    | Some id when String.length id > 1 && id.[0] = 'r' ->
      int_of_string_opt (String.sub id 1 (String.length id - 1))
    | _ -> None)
  | Error _ -> None

type timing = { sent : float array; received : float array; lines : string array }

let drive d (requests : request array) =
  let n = Array.length requests in
  let t0 = H.now () +. 0.05 in
  let sent = Array.make n nan and received = Array.make n nan in
  let lines = Array.make n "" in
  let got = ref 0 and next = ref 0 in
  let give_up = t0 +. requests.(n - 1).due +. 60.0 in
  while !got < n do
    if H.now () > give_up then failwith "serve: replies still missing 60 s after the schedule";
    let wait = if !next < n then t0 +. requests.(!next).due -. H.now () else 0.5 in
    let arrived = poll d.conn wait in
    let t = H.now () in
    List.iter
      (fun line ->
        match id_index line with
        | Some i when i < n && Float.is_nan received.(i) ->
          received.(i) <- t;
          lines.(i) <- line;
          incr got
        | _ -> failwith ("serve: unexpected reply " ^ line))
      arrived;
    while !next < n && t0 +. requests.(!next).due <= H.now () do
      sent.(!next) <- H.now ();
      send d.conn requests.(!next).line;
      incr next
    done
  done;
  ({ sent; received; lines }, t0)

(* ------------------------------------------------------------------ *)

let number_at path v =
  let rec go v = function
    | [] -> J.get_number v
    | k :: rest -> Option.bind (J.member k v) (fun v -> go v rest)
  in
  Option.value ~default:nan (go v path)

let ms xs = List.map (fun s -> s *. 1e3) xs

let run ~seed ~seconds ~traced =
  let trace_base = Filename.concat H.out_dir (Printf.sprintf "serve-%d-daemon" seed) in
  let count = ref 0 in
  let fresh () =
    incr count;
    start ~traced ~trace_base ~tag:(string_of_int !count)
  in
  let d, setups_s = H.setups ~count:5 ~release:stop fresh in
  let hot, requests = schedule ~seed ~seconds in
  let measure () =
    (* warm the cache with the hot set; these are not timed *)
    Array.iteri
      (fun i key -> send d.conn (Protocol.encode_request (map_frame (Printf.sprintf "w%d" i) key)))
      hot;
    let warmed = ref 0 in
    while !warmed < Array.length hot do
      warmed := !warmed + List.length (recv d.conn ~deadline:(H.now () +. 120.0))
    done;
    let stats_before = roundtrip d.conn (simple_frame "warm" Protocol.Stats) in
    let wal_before = (Unix.stat (wal_path d.dir)).st_size in
    let timing, t0 = drive d requests in
    let stats_after = roundtrip d.conn (simple_frame "final" Protocol.Stats) in
    let rss_mb = H.peak_rss_mb ~pid:(string_of_int d.pid) () in
    let wal_bytes = (Unix.stat (wal_path d.dir)).st_size - wal_before in
    (timing, t0, stats_before, stats_after, rss_mb, wal_bytes)
  in
  let timing, t0, stats_before, stats_after, rss_mb, wal_bytes =
    match measure () with
    | m ->
      stop d;
      m
    | exception e ->
      abandon ~pid:d.pid ~dir:d.dir;
      raise e
  in
  let n = Array.length requests in
  let batch_s = Array.fold_left Float.max 0.0 timing.received -. t0 in
  (* check every reply against the in-process handler, then replay the
     hit frames on the now-warm oracle to time decode and handling
     without the transport *)
  let oracle = Cache.in_memory () in
  let no_stats ~id:_ = "" in
  let ok =
    Array.mapi
      (fun i (r : request) ->
        let got = timing.lines.(i) in
        let errors =
          match r.kind with
          | Stats -> (
            match J.parse got with
            | Ok v ->
              H.expect
                (Option.bind (J.member "status" v) J.get_string = Some "ok")
                "stats reply is not ok"
            | Error _ -> [ "stats reply is not JSON" ])
          | Hit | Miss | Ping ->
            H.expect (got = Server.handle ~cache:oracle ~stats:no_stats r.frame)
              ("reply differs from Server.handle: " ^ got)
        in
        H.record ~op:("serve " ^ r.frame.id) errors;
        errors = [])
      requests
  in
  let hits = List.filter (fun (r : request) -> r.kind = Hit) (Array.to_list requests) in
  let decode_s, handle_s =
    List.split
      (List.map
         (fun (r : request) ->
           let frame, decode = H.time (fun () -> H.call "protocol.decode" (fun () -> Protocol.decode r.line)) in
           match frame with
           | Ok frame ->
             let _, handle = H.time (fun () -> H.call "server.handle" (fun () -> Server.handle ~cache:oracle ~stats:no_stats frame)) in
             (decode, handle)
           | Error _ -> failwith "serve: replay frame does not decode")
         hits)
  in
  let latency i = timing.received.(i) -. (t0 +. requests.(i).due) in
  let all = List.init n Fun.id in
  (* Identical requests (same frame but for the id) are repetitions of
     one operation; as on the batch workloads, each counts with its
     operation's fast time (Harness.fast) over those repetitions. *)
  let op_key i = Protocol.encode_request { (requests.(i).frame) with id = "" } in
  let samples = Hashtbl.create 128 in
  List.iter
    (fun i ->
      let k = op_key i in
      Hashtbl.replace samples k (latency i :: Option.value ~default:[] (Hashtbl.find_opt samples k)))
    all;
  let fast = Hashtbl.create 128 in
  Hashtbl.iter (fun k xs -> Hashtbl.replace fast k (H.fast xs)) samples;
  let good =
    List.length (List.filter (fun i -> ok.(i) && latency i *. 1e3 <= latency_limit_ms) all)
  in
  let class_rtt kind =
    ms
      (List.filter_map
         (fun i ->
           if requests.(i).kind = kind then Some (timing.received.(i) -. timing.sent.(i)) else None)
         all)
  in
  (* the II of every distinct key the schedule mapped *)
  let ii_of_key = Hashtbl.create 128 in
  Array.iteri
    (fun i (r : request) ->
      match (r.kind, r.frame.request) with
      | (Hit | Miss), Protocol.Map { point; kernel; _ } -> (
        match J.parse timing.lines.(i) with
        | Ok v ->
          Option.iter
            (Hashtbl.replace ii_of_key (Space.to_string point, kernel))
            (Option.bind (J.member "ii" v) J.get_int)
        | Error _ -> ())
      | _ -> ())
    requests;
  let iis = Hashtbl.fold (fun _ ii acc -> ii :: acc) ii_of_key [] in
  (* the daemon's counters over the timed schedule: final minus warm *)
  let parse line = match J.parse line with Ok v -> v | Error _ -> J.Null in
  let before = parse stats_before and after = parse stats_after in
  let delta path = number_at path after -. number_at path before in
  let daemon_mean_s =
    let count = delta [ "latency"; "count" ] in
    let sum v = number_at [ "latency"; "mean_s" ] v *. number_at [ "latency"; "count" ] v in
    (sum after -. sum before) /. count
  in
  let lat = ms (List.map latency all) in
  let rtt = ms (List.map (fun i -> timing.received.(i) -. timing.sent.(i)) all) in
  let misses = List.length (class_rtt Miss) in
  let expected =
    List.filter_map
      (fun i -> match requests.(i).kind with Stats -> None | _ -> Some timing.lines.(i))
      all
  in
  {
    H.setups_s;
    batch_s;
    ops_ms = ms (List.map (fun i -> Hashtbl.find fast (op_key i)) all);
    goodput_per_s = float_of_int good /. batch_s;
    rss_mb;
    iis;
    counters =
      [ ("replies", Iced_util.Fnv.to_hex (Iced_util.Fnv.hash_string (String.concat "\n" expected)));
        ("requests", string_of_int n); ("misses", string_of_int misses);
        ("wal_bytes", string_of_int wal_bytes) ];
    summary =
      [ ("serve_p50_ms", H.median lat, "ms"); ("serve_p99_ms", H.p99 lat, "ms");
        ("serve_goodput_rps", float_of_int good /. batch_s, "1/s");
        ("misses", float_of_int misses, "count") ];
    layer_metrics =
      (let q name f xs = (name, f xs, "ms") in
       [ q "serve.hit.p50_ms" H.median (class_rtt Hit);
         q "serve.hit.p99_ms" H.p99 (class_rtt Hit);
         q "serve.miss.p50_ms" H.median (class_rtt Miss);
         q "serve.miss.p99_ms" H.p99 (class_rtt Miss);
         q "serve.ping.p50_ms" H.median (class_rtt Ping);
         q "serve.ping.p99_ms" H.p99 (class_rtt Ping);
         ("daemon.p50_ms", 1e3 *. number_at [ "latency"; "p50_s" ] after, "ms");
         ("daemon.p99_ms", 1e3 *. number_at [ "latency"; "p99_s" ] after, "ms");
         ("daemon.queue_length", number_at [ "queue_length" ] after, "count");
         ("daemon.dedup_hits", delta [ "cache"; "hits" ], "count");
         ("daemon.dedup_misses", delta [ "cache"; "misses" ], "count");
         ("daemon.coalesced", delta [ "cache"; "coalesced" ], "count");
         ("daemon.shed", delta [ "shed" ], "count");
         ("cache.wal_bytes", float_of_int wal_bytes, "bytes");
         ( "loadgen.lag_p99_ms",
           H.p99 (ms (List.map (fun i -> timing.sent.(i) -. (t0 +. requests.(i).due)) all)),
           "ms" );
         ("protocol.decode_us", 1e6 *. H.median decode_s, "us");
         ("server.handle_hit_us", 1e6 *. H.median handle_s, "us");
         ( "unattributed.s",
           (Iced_util.Stats.mean rtt /. 1e3) -. daemon_mean_s,
           "s" ) ]);
  }

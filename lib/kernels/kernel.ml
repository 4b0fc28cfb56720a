open Iced_dfg

type domain = Embedded | Machine_learning | Hpc | Gcn | Lu

type table_stats = {
  nodes1 : int;
  edges1 : int;
  rec_mii1 : int;
  nodes2 : int;
  edges2 : int;
  rec_mii2 : int;
}

(* Compute-once slots for facts derived from the (immutable) kernel.
   Each is filled by whichever domain gets there first; a domain that
   loses the race drops its own copy and returns the winner's, so every
   caller sees one physical value. *)
type memo = {
  unrolled : Graph.t option Atomic.t;
  stats1 : (int * int * int) option Atomic.t;
  stats2 : (int * int * int) option Atomic.t;
}

type t = {
  name : string;
  domain : domain;
  data : string;
  dfg : Graph.t;
  unroll_shared : int list;
  serial_phis : int list;
  table : table_stats;
  binding : Iced_sim.Sim.binding;
  iterations : int;
  memo : memo;
}

let domain_to_string = function
  | Embedded -> "embedded"
  | Machine_learning -> "ml"
  | Hpc -> "hpc"
  | Gcn -> "gcn"
  | Lu -> "lu"

let once slot compute =
  match Atomic.get slot with
  | Some v -> v
  | None ->
    let v = compute () in
    if Atomic.compare_and_set slot None (Some v) then v else Option.get (Atomic.get slot)

let bad_factor () = invalid_arg "Kernel.dfg_at: only unroll factors 1 and 2 are modeled"

let dfg_at k ~factor =
  match factor with
  | 1 -> k.dfg
  | 2 ->
    once k.memo.unrolled (fun () ->
        Transform.unroll k.dfg
          ~spec:{ Transform.factor = 2; shared = k.unroll_shared; serial_phis = k.serial_phis })
  | _ -> bad_factor ()

let stats g = (Graph.node_count g, Graph.edge_count g, Analysis.rec_mii g)

let stats_at k ~factor =
  let slot = match factor with 1 -> k.memo.stats1 | 2 -> k.memo.stats2 | _ -> bad_factor () in
  once slot (fun () -> stats (dfg_at k ~factor))

let make ~name ~domain ~data ~dfg ?(unroll_shared = []) ?(serial_phis = []) ~table
    ?(binding = Iced_sim.Sim.zero_binding) ~iterations () =
  (match Graph.validate dfg with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Kernel.make %s: %s" name msg));
  let memo =
    { unrolled = Atomic.make None; stats1 = Atomic.make None; stats2 = Atomic.make None }
  in
  { name; domain; data; dfg; unroll_shared; serial_phis; table; binding; iterations; memo }

(* E17 — The replication tier: catch-up throughput, steady-state lag,
   failover time.

   Three measurements over an in-process primary + replica pair:

   - {b catch-up}: a primary accumulates a journal; a fresh replica
     bootstraps and drains it.  Reported as journal bytes (and versions)
     per second from replica start to convergence.
   - {b steady-state lag}: a writer applies updates one at a time; after
     each acknowledged UPDATE the driver polls the replica until the new
     version is visible there.  The ack-to-visible gap is the replication
     lag a reader of the replica actually experiences (it includes the
     WAIT long-poll round trip, so poll-ms bounds it from below).
   - {b failover}: the primary stops; the clock runs from the moment the
     PROMOTE request is sent to the replica until a first QUERY has been
     served by the promoted node.

   Raw numbers go to BENCH_repl.json; the CI replication job uploads that
   file as an artifact. *)

module Service = Rserver.Service
module Replica = Rserver.Replica
module Client = Rserver.Client
module Protocol = Rserver.Protocol
module Snapshot = Rserver.Snapshot

let workdir () = Report.workdir "e17"

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let service_config tag =
  {
    Service.socket_path = Filename.concat (workdir ()) (tag ^ ".sock");
    data_dir = Filename.concat (workdir ()) tag;
    workers = 2;
    max_queue = 16;
    deadline_ms = 0;
    max_area_size = 64;
    max_depth = 10_000;
    domains = 0;
    cache_mb = 0;
    commit_interval_us = 0;
    commit_max_batch = 64;
    commit_groups = 1;
    wal_segment_bytes = 0;
    planner = true;
    plan_cache = 256;
    epoch = 1;
  }

let replica_config ~primary tag =
  {
    Replica.socket_path = Filename.concat (workdir ()) (tag ^ ".sock");
    data_dir = Filename.concat (workdir ()) tag;
    primary;
    workers = 2;
    max_queue = 16;
    poll_ms = 25;
    planner = true;
    plan_cache = 256;
  }

let wait_for_version r v =
  while (Replica.snapshot r).Snapshot.version < v do
    Thread.delay 0.001
  done

let insert i =
  Rstorage.Wal.Insert { parent_rank = 0; pos = 0; tag = Printf.sprintf "m%d" i }

let run () =
  Report.section
    "E17  Replication: catch-up throughput, steady-state lag, failover time";
  let root =
    Rworkload.Shape.generate ~seed:171 ~target:2000
      (Rworkload.Shape.Uniform { fanout_lo = 1; fanout_hi = 4 })
  in

  (* --- catch-up: bootstrap + drain an accumulated journal ----------- *)
  let backlog = 600 in
  let pcfg = service_config "e17p" in
  let srv = Service.start pcfg [ ("bench", Rxml.Dom.clone root) ] in
  (Client.with_connection pcfg.Service.socket_path @@ fun c ->
   for i = 1 to backlog do
     match Client.request c (Protocol.Update { doc = "bench"; op = insert i }) with
     | Protocol.Ok_ _ -> ()
     | r -> failwith ("E17 backlog write: " ^ Protocol.response_to_string r)
   done);
  let wal_bytes =
    (Unix.stat (Filename.concat pcfg.Service.data_dir "bench.wal")).Unix.st_size
  in
  let target_v = 1 + backlog in
  let t0 = Unix.gettimeofday () in
  let rcfg = replica_config ~primary:pcfg.Service.socket_path "e17r" in
  let rep = Replica.start rcfg in
  wait_for_version rep target_v;
  let catchup_s = Unix.gettimeofday () -. t0 in
  let catchup_bps = float_of_int wal_bytes /. catchup_s in
  let catchup_vps = float_of_int backlog /. catchup_s in

  (* --- steady-state lag: ack-to-visible per update ------------------ *)
  let samples = 200 in
  let lags =
    Client.with_connection pcfg.Service.socket_path @@ fun c ->
    Array.init samples (fun i ->
        let resp =
          Client.request c
            (Protocol.Update { doc = "bench"; op = insert (backlog + i + 1) })
        in
        let acked = Unix.gettimeofday () in
        match resp with
        | Protocol.Ok_ body ->
          let v =
            match Client.kv_int body "v" with
            | Some v -> v
            | None -> failwith "UPDATE reply lacks v="
          in
          wait_for_version rep v;
          Unix.gettimeofday () -. acked
        | r -> failwith ("E17 lag write: " ^ Protocol.response_to_string r))
  in
  let sorted = Array.copy lags in
  Array.sort compare sorted;
  let lag_p50 = percentile sorted 0.50 and lag_p99 = percentile sorted 0.99 in

  (* --- failover: PROMOTE until the first served read ---------------- *)
  Service.stop srv;
  let t1 = Unix.gettimeofday () in
  let first_read_s =
    Client.with_connection rcfg.Replica.socket_path @@ fun c ->
    (match Client.request c Protocol.Promote with
    | Protocol.Ok_ _ -> ()
    | r -> failwith ("E17 PROMOTE: " ^ Protocol.response_to_string r));
    match Client.request c (Protocol.Count "//m1") with
    | Protocol.Ok_ _ -> Unix.gettimeofday () -. t1
    | r -> failwith ("E17 failover read: " ^ Protocol.response_to_string r)
  in
  Replica.stop rep;

  Report.table
    [ "metric"; "value" ]
    [
      [ "catch-up journal"; Printf.sprintf "%d B / %d versions" wal_bytes backlog ];
      [ "catch-up time"; Printf.sprintf "%.3f s" catchup_s ];
      [ "catch-up throughput";
        Printf.sprintf "%.0f B/s, %.0f versions/s" catchup_bps catchup_vps ];
      [ "replication lag p50"; Printf.sprintf "%.1f ms" (lag_p50 *. 1e3) ];
      [ "replication lag p99"; Printf.sprintf "%.1f ms" (lag_p99 *. 1e3) ];
      [ "failover to first read"; Printf.sprintf "%.1f ms" (first_read_s *. 1e3) ];
    ];
  Report.note
    "lag is ack-to-visible from a reader's seat: it includes the replica's";
  Report.note
    "WAIT long-poll round trip, so poll-ms (25 here) is its natural floor.";
  let oc = open_out "BENCH_repl.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"E17\",\n\
     %s,\n\
    \  \"catchup\": {\"journal_bytes\": %d, \"versions\": %d, \"seconds\": \
     %.4f, \"bytes_per_s\": %.1f, \"versions_per_s\": %.1f},\n\
    \  \"lag\": {\"samples\": %d, \"p50_ms\": %.3f, \"p99_ms\": %.3f},\n\
    \  \"failover\": {\"to_first_read_ms\": %.3f}\n\
     }\n"
    (Report.meta_json ()) wal_bytes backlog catchup_s catchup_bps catchup_vps
    samples (lag_p50 *. 1e3) (lag_p99 *. 1e3)
    (first_read_s *. 1e3);
  close_out oc;
  Report.note "wrote BENCH_repl.json"

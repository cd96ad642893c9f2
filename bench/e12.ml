(* E12 — Crash-safe journaling: what durability costs and what recovery
   costs.

   (a) Recovery wall clock as the journal grows: snapshot + N journaled
   operations, then a cold Wal.replay (with and without the deep invariant
   checker).  (b) The per-operation price of durability: applying an update
   in memory, journaling it through the WAL (append + fsync), and the naive
   alternative of rewriting the whole snapshot after every operation.
   (c) The sidecar format itself: v3 (per-section CRC-32, framed) against
   the seed's v2, encode/decode wall clock and size.

   Raw numbers go to BENCH_recovery.json; the CI fault-injection job
   uploads that file as an artifact. *)

module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module Persist = Ruid.Persist
module Wal = Rstorage.Wal
module Crashsim = Rstorage.Crashsim
module Updates = Rworkload.Updates

let json_recovery : string list ref = ref []
let json_append : string list ref = ref []
let json_sidecar : string list ref = ref []

let workdir () = Report.workdir "e12"

let paths () =
  ( Filename.concat (workdir ()) "snapshot.xml",
    Filename.concat (workdir ()) "snapshot.ruid",
    Filename.concat (workdir ()) "journal.wal" )

let fresh_snapshot ~seed ~size ~area =
  let base =
    Rworkload.Shape.generate ~seed ~target:size
      (Rworkload.Shape.Uniform { fanout_lo = 1; fanout_hi = 4 })
  in
  let r2 = R2.number ~max_area_size:area base in
  let xml, sidecar, wal = paths () in
  Persist.save r2 ~xml ~sidecar;
  if Sys.file_exists wal then Sys.remove wal;
  (base, r2, xml, sidecar, wal)

let recovery_table () =
  Report.subsection "E12.a  recovery wall clock vs journal length";
  let size = 2000 and area = 32 in
  let rows =
    List.map
      (fun ops ->
        let base, live, xml, sidecar, wal =
          fresh_snapshot ~seed:121 ~size ~area
        in
        let script =
          List.map Crashsim.wal_op_of_update
            (Updates.script ~seed:122 ~ops base)
        in
        let w = Wal.create wal in
        List.iter (fun op -> ignore (Wal.log_update w live op)) script;
        let journal_bytes = (Unix.stat wal).Unix.st_size in
        let _, t_load = Report.time (fun () -> Persist.load ~xml ~sidecar ()) in
        let rec1, t_replay =
          Report.time (fun () -> Wal.replay ~xml ~sidecar ~wal ())
        in
        let _, t_nocheck =
          Report.time (fun () ->
              Wal.replay ~check:false ~xml ~sidecar ~wal ())
        in
        assert (List.length rec1.Wal.replayed = ops);
        json_recovery :=
          Printf.sprintf
            {|    {"nodes": %d, "ops": %d, "journal_bytes": %d, "load_ns": %.0f, "replay_ns": %.0f, "replay_nocheck_ns": %.0f}|}
            size ops journal_bytes (t_load *. 1e9) (t_replay *. 1e9)
            (t_nocheck *. 1e9)
          :: !json_recovery;
        [
          Report.fint ops;
          Report.fint journal_bytes;
          Report.fns (t_load *. 1e9);
          Report.fns (t_replay *. 1e9);
          Report.fns (t_nocheck *. 1e9);
        ])
      [ 16; 64; 256; 1024 ]
  in
  Report.table
    [ "ops"; "journal B"; "snapshot load"; "replay+check"; "replay" ]
    rows;
  Report.note
    "replay is snapshot load + positional re-application of the journal;";
  Report.note
    "the +check column adds the deep invariant sweep (Ruid2.check) that";
  Report.note "recovery runs as its postcondition."

let append_table () =
  Report.subsection "E12.b  per-operation durability cost";
  let size = 2000 and area = 32 and ops = 64 in
  let rows =
    List.map
      (fun (label, durability) ->
        let base, live, xml, sidecar, wal =
          fresh_snapshot ~seed:123 ~size ~area
        in
        let script =
          List.map Crashsim.wal_op_of_update
            (Updates.script ~seed:124 ~ops base)
        in
        let w = Wal.create wal in
        let _, t =
          Report.time (fun () ->
              List.iter
                (fun op ->
                  match durability with
                  | `Memory -> ignore (Wal.apply live op)
                  | `Wal -> ignore (Wal.log_update w live op)
                  | `Resave ->
                    ignore (Wal.apply live op);
                    Persist.save live ~xml ~sidecar)
                script)
        in
        let per_op = t /. float_of_int ops in
        json_append :=
          Printf.sprintf
            {|    {"mode": "%s", "nodes": %d, "ops": %d, "per_op_ns": %.0f}|}
            label size ops (per_op *. 1e9)
          :: !json_append;
        [ label; Report.fns (per_op *. 1e9) ])
      [
        ("in-memory only", `Memory);
        ("WAL append+fsync", `Wal);
        ("full re-save", `Resave);
      ]
  in
  Report.table [ "durability"; "per op" ] rows;
  Report.note
    "the WAL row is the crash-safe configuration; full re-save is the only";
  Report.note "durable alternative without a journal."

let sidecar_table () =
  Report.subsection "E12.c  sidecar format: v3 (framed, per-section CRC) vs v2";
  let rows =
    List.concat_map
      (fun size ->
        let base =
          Rworkload.Shape.generate ~seed:125 ~target:size
            (Rworkload.Shape.Uniform { fanout_lo = 1; fanout_hi = 4 })
        in
        let r2 = R2.number ~max_area_size:32 base in
        let reps = 20 in
        let enc f =
          let b = ref Bytes.empty in
          let _, t =
            Report.time (fun () ->
                for _ = 1 to reps do
                  b := f r2
                done)
          in
          (!b, t /. float_of_int reps)
        in
        let dec bytes =
          let _, t =
            Report.time (fun () ->
                for _ = 1 to reps do
                  ignore (Persist.sidecar_of_bytes (Dom.clone base) bytes)
                done)
          in
          t /. float_of_int reps
        in
        let b3, t3e = enc Persist.sidecar_to_bytes in
        let b2, t2e = enc Persist.sidecar_to_bytes_v2 in
        let t3d = dec b3 and t2d = dec b2 in
        List.map
          (fun (v, b, te, td) ->
            json_sidecar :=
              Printf.sprintf
                {|    {"nodes": %d, "format": "%s", "bytes": %d, "encode_ns": %.0f, "decode_ns": %.0f}|}
                size v (Bytes.length b) (te *. 1e9) (td *. 1e9)
              :: !json_sidecar;
            [
              Report.fint size; v;
              Report.fint (Bytes.length b);
              Report.fns (te *. 1e9);
              Report.fns (td *. 1e9);
            ])
          [ ("v3", b3, t3e, t3d); ("v2", b2, t2e, t2d) ])
      [ 500; 5000 ]
  in
  Report.table [ "nodes"; "format"; "bytes"; "encode"; "decode" ] rows;
  Report.note
    "v3 adds one length varint and a CRC-32 per section (12-15 bytes total)";
  Report.note "and buys torn/corrupt detection with a named section + offset."

let write_json path =
  let oc = open_out path in
  let section name rows =
    Printf.sprintf "  \"%s\": [\n%s\n  ]" name
      (String.concat ",\n" (List.rev rows))
  in
  Printf.fprintf oc "{\n  \"experiment\": \"E12\",\n%s,\n%s,\n%s,\n%s\n}\n"
    (Report.meta_json ())
    (section "recovery" !json_recovery)
    (section "append" !json_append)
    (section "sidecar" !json_sidecar);
  close_out oc;
  Report.note "wrote %s" path

let run () =
  Report.section "E12  Crash-safe journaling: durability and recovery costs";
  recovery_table ();
  append_table ();
  sidecar_table ();
  write_json "BENCH_recovery.json"

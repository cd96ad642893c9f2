(* E20 — Streaming ingest vs DOM ingest: throughput and peak memory.

   The DOM path is what ingest did before the streaming builder existed:
   read the whole file into a string, [Parser.parse_string], then
   [Ruid2.number] — the source text, the tree and the numbering are all
   live at once, and the text was parsed twice when the client prechecked
   well-formedness.  The streaming path is [Stream_build.of_file]: one SAX
   pass over a chunked feed assembling the tree and the numbering directly,
   with the source never materialized.

   Both paths necessarily keep the finished tree (the paper's numbering
   needs global structure — fan-out and the greedy cut — before any
   identifier is final), so peak RSS grows with document size on both.
   What streaming buys is the constant: the full source string and the
   second parse disappear, so the extra footprint per ingested byte drops
   and the gap widens linearly with document size.  Client-side the bound
   is stronger still — [Client.add_doc_file] holds one protocol frame
   regardless of file size — but that is exercised by the server tests;
   this experiment isolates the build itself.

   Method: every measurement runs in a child process so the high-water
   mark (VmHWM, see [Report.peak_rss_kb]) belongs to that one build.  The
   child is a fresh harness process started on the hidden [child_verb]
   sub-command — not a fork, which OCaml 5 refuses once earlier
   experiments (E14, E15) have spawned domains; it samples the mark before
   and after the work and reports the difference, cancelling the
   footprint of the harness itself.  Documents
   are generated deterministically at several sizes; each child repeats the
   build enough times to get a stable docs/s figure (RSS is taken from the
   same run — repetition does not move the high-water mark since each
   iteration's tree replaces the last).  The two paths differ by less than
   run-to-run noise, so DOM and stream children alternate, five of each,
   and each path reports its median time and footprint.

   Raw rows and the headline ratios go to BENCH_ingest.json; the CI ingest
   job gates on streaming throughput >= 0.95x DOM and on the streaming
   footprint staying below the DOM path's at the largest size. *)

module Parser = Rxml.Parser
module Dom = Rxml.Dom
module Stream_build = Ruid.Stream_build
module Ruid2 = Ruid.Ruid2

let workdir () = Report.workdir "e20"

let max_area_size = 64

(* Deterministic catalog-shaped document of at least [target] bytes:
   moderate fan-out at the top, small rigid records below — the shape real
   corpora (DBLP, XMark items) ingest as. *)
let gen_file path ~target =
  let oc = open_out_bin path in
  let buf = Buffer.create 65_536 in
  Buffer.add_string buf "<catalog>\n";
  let i = ref 0 in
  while Buffer.length buf < target do
    Buffer.add_string buf
      (Printf.sprintf
         "<item id=\"%d\"><name>item-%d</name><price>%d</price><desc>A \
          sturdy example artifact, batch %d, for the ingest \
          benchmark.</desc></item>\n"
         !i !i ((!i * 37) mod 997) (!i / 64));
    incr i
  done;
  Buffer.add_string buf "</catalog>\n";
  output_string oc (Buffer.contents buf);
  close_out oc;
  (Unix.stat path).Unix.st_size

type sample = {
  secs : float;
  reps : int;
  nodes : int;
  extra_kb : int;  (* VmHWM growth across the builds, KiB *)
}

let build_once mode path =
  match mode with
  | `Stream -> (Stream_build.of_file ~max_area_size path).Stream_build.stats.Stream_build.nodes
  | `Dom ->
    let ic = open_in_bin path in
    let xml =
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      really_input_string ic (in_channel_length ic)
    in
    let doc = Parser.parse_string xml in
    let r2 = Ruid2.number ~max_area_size doc in
    ignore (Sys.opaque_identity r2);
    Dom.size doc

(* The hidden sub-command [bench/main.exe __e20-measure MODE PATH REPS]:
   run [reps] builds and print "secs nodes extra_kb" on stdout. *)
let child_verb = "__e20-measure"

let child = function
  | [ mode; path; reps ] ->
    let mode = if mode = "dom" then `Dom else `Stream in
    let base_kb = Report.peak_rss_kb () in
    let t0 = Unix.gettimeofday () in
    let nodes = ref 0 in
    for _ = 1 to int_of_string reps do
      nodes := build_once mode path
    done;
    let secs = Unix.gettimeofday () -. t0 in
    Printf.printf "%f %d %d\n" secs !nodes
      (max 0 (Report.peak_rss_kb () - base_kb))
  | _ -> failwith ("usage: " ^ child_verb ^ " dom|stream PATH REPS")

(* Run [reps] builds in a child harness process; its stdout carries the
   sample back. *)
let measure mode path ~reps =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; child_verb;
         (match mode with `Dom -> "dom" | `Stream -> "stream");
         path; string_of_int reps |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = In_channel.input_line ic in
  close_in ic;
  match (Unix.waitpid [] pid, line) with
  | (_, Unix.WEXITED 0), Some line ->
    Scanf.sscanf line "%f %d %d" (fun secs nodes extra_kb ->
        { secs; reps; nodes; extra_kb })
  | _ -> failwith "E20: measurement child failed"

let docs_per_s s = float_of_int s.reps /. s.secs

let children = 5

(* DOM and stream children alternate so drift on the machine hits both
   paths alike; each path keeps the median time and footprint of its
   [children] samples. *)
let measure_paired path ~reps =
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  let med samples =
    { (List.hd samples) with
      secs = median (List.map (fun s -> s.secs) samples);
      extra_kb = median (List.map (fun s -> s.extra_kb) samples) }
  in
  let pairs =
    List.init children (fun _ ->
        let dom = measure `Dom path ~reps in
        (dom, measure `Stream path ~reps))
  in
  (med (List.map fst pairs), med (List.map snd pairs))

let json_rows : string list ref = ref []

let write_json path ~ratio_tp ~ratio_rss =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"E20\",\n\
     %s,\n\
    \  \"headline\": {\"stream_over_dom_throughput\": %.3f, \
     \"stream_over_dom_peak_rss\": %.3f},\n\
    \  \"sizes\": [\n%s\n  ]\n}\n"
    (Report.meta_json ~knobs:[ ("max_area_size", max_area_size) ] ())
    ratio_tp ratio_rss
    (String.concat ",\n" (List.rev !json_rows));
  close_out oc;
  Report.note "wrote %s" path

let run () =
  Report.section "E20  Streaming ingest vs DOM ingest: docs/s and peak RSS";
  let sizes = [ ("128K", 128 * 1024); ("1M", 1 lsl 20); ("8M", 8 lsl 20) ] in
  let last_tp = ref 1.0 and last_rss = ref 1.0 in
  let rows =
    List.map
      (fun (label, target) ->
        let path = Filename.concat (workdir ()) ("doc-" ^ label ^ ".xml") in
        let bytes = gen_file path ~target in
        (* Enough repetitions for a stable clock on small files, few on the
           big ones where a single build already takes seconds. *)
        let reps = max 2 (min 40 (16_000_000 / bytes)) in
        let dom, st = measure_paired path ~reps in
        if dom.nodes <> st.nodes then
          failwith
            (Printf.sprintf "E20: node count mismatch (dom %d, stream %d)"
               dom.nodes st.nodes);
        let tp = docs_per_s st /. docs_per_s dom in
        let rss =
          if dom.extra_kb = 0 then 1.0
          else float_of_int st.extra_kb /. float_of_int dom.extra_kb
        in
        last_tp := tp;
        last_rss := rss;
        json_rows :=
          Printf.sprintf
            "    {\"size\": %S, \"bytes\": %d, \"nodes\": %d, \"reps\": %d, \
             \"children\": %d,\n\
            \     \"dom\": {\"secs\": %.4f, \"docs_per_s\": %.2f, \
             \"peak_extra_kb\": %d},\n\
            \     \"stream\": {\"secs\": %.4f, \"docs_per_s\": %.2f, \
             \"peak_extra_kb\": %d}}"
            label bytes st.nodes reps children dom.secs (docs_per_s dom)
            dom.extra_kb
            st.secs (docs_per_s st) st.extra_kb
          :: !json_rows;
        [
          label;
          Report.fint bytes;
          Report.fint st.nodes;
          Printf.sprintf "%.1f" (docs_per_s dom);
          Printf.sprintf "%.1f" (docs_per_s st);
          Printf.sprintf "%.2fx" tp;
          Report.fint dom.extra_kb;
          Report.fint st.extra_kb;
          Printf.sprintf "%.2fx" rss;
        ])
      sizes
  in
  Report.table
    [
      "doc"; "bytes"; "nodes"; "dom docs/s"; "stream docs/s"; "speedup";
      "dom kb"; "stream kb"; "rss ratio";
    ]
    rows;
  Report.note "both paths keep the finished tree (numbering needs global";
  Report.note "structure), so RSS grows with the document on both; streaming";
  Report.note "drops the source copy and the second parse, so its footprint";
  Report.note "per byte stays below the DOM path's and the gap widens with";
  Report.note "size.  The CI ingest job gates on the headline ratios.";
  write_json "BENCH_ingest.json" ~ratio_tp:!last_tp ~ratio_rss:!last_rss

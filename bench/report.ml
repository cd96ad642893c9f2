(* Plain-text tables for the experiment harness. *)

let section title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n" line title line

let subsection title = Printf.printf "\n--- %s ---\n" title

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

(* Print a table given headers and rows of strings; columns sized to fit. *)
let table headers rows =
  let cols = List.length headers in
  let width i =
    List.fold_left
      (fun acc row -> max acc (String.length (List.nth row i)))
      (String.length (List.nth headers i))
      rows
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        if i = 0 then Printf.printf "  %-*s" w cell
        else Printf.printf "  %*s" w cell)
      row;
    print_newline ()
  in
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let fint n = string_of_int n
let ffloat f = Printf.sprintf "%.2f" f

let fns ns =
  if ns < 1e3 then Printf.sprintf "%.1f ns" ns
  else if ns < 1e6 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else Printf.sprintf "%.2f s" (ns /. 1e9)

let fbool b = if b then "yes" else "no"

(* Peak resident set (VmHWM) of the calling process in KiB, from
   /proc/self/status; 0 where /proc is unavailable (non-Linux).  The
   high-water mark is monotone for the process lifetime, so callers that
   want the footprint of one phase sample it before and after and take the
   difference. *)
(* The experiment's scratch directory, [ruid-<tag>-<pid>] under the temp
   dir, created on first use (never at module load: the hidden E20
   sub-command starts a fresh harness process that must leave none). *)
let workdir tag =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ruid-%s-%d" tag (Unix.getpid ()))
  in
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          try Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
                Fun.id
          with Scanf.Scan_failure _ | Failure _ -> 0
        else go ()
    in
    go ()

(* Provenance stamped into every BENCH_*.json: bench numbers without the
   machine, toolchain and revision that produced them are not comparable
   run-to-run — and concurrency numbers without the worker/domain/
   commit-group knobs the run actually used are not interpretable across
   boxes, so experiments pass those through [knobs].  Rendered as one JSON
   member (no trailing comma). *)
let meta_json ?(knobs = []) () =
  let git_rev =
    try
      let ic =
        Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
      in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
    with _ -> "unknown"
  in
  let knob_members =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf ", %S: %d" k v) knobs)
  in
  Printf.sprintf
    {|  "meta": {"cores": %d, "ocaml": %S, "git_rev": %S, "timestamp": %.0f, "peak_rss_kb": %d%s}|}
    (Domain.recommended_domain_count ())
    Sys.ocaml_version git_rev (Unix.gettimeofday ())
    (peak_rss_kb ()) knob_members

(* Wall-clock timing for macro operations (result, seconds). *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

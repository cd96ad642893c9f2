(* In-process side of the repository benchmark (perfbench/run.py).

   pbtool gen SPEC DIR      write the seeded documents SPEC lists into DIR
   pbtool oracle DOCS QS    Engine_naive answer counts, the benchmark's oracle
   pbtool trace SPEC        per-layer timings: calls into each layer's public
                            functions over the workload's own documents

   Every file format is tab-separated lines; every reply is
   "key<TAB>value" lines on stdout.  The benchmark runs no query, ingest or
   update path of its own: it times the library calls the servers make. *)

module Dom = Rxml.Dom
module Sax = Rxml.Sax
module R2 = Ruid.Ruid2
module Sb = Ruid.Stream_build
module Planner = Rxpath.Planner
module Snapshot = Rserver.Snapshot
module Wal = Rstorage.Wal

(* The server's numbering parameter ({!Rserver.Service.default_config}). *)
let max_area_size = 64

let lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (String.split_on_char '\t')

let read_file path = In_channel.with_open_bin path In_channel.input_all

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l))

(* Median seconds per call over batches of at least 0.2 ms (one warm-up
   call first), until 20 ms of samples or 200 batches, at least 3. *)
let per_call f =
  let _, once = timed f in
  let batch = max 1 (int_of_float (2e-4 /. Float.max once 1e-7)) in
  let run () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do ignore (f ()) done;
    (Unix.gettimeofday () -. t0) /. float_of_int batch
  in
  let rec go acc n spent =
    if n >= 3 && (spent >= 0.02 || n >= 200) then median acc
    else
      let dt = run () in
      go (dt :: acc) (n + 1) (spent +. (dt *. float_of_int batch))
  in
  go [] 0 0.

let emit name v = Printf.printf "%s\t%.6g\n" name v

(* Preorder ranks of the element nodes: the valid INSERT parents. *)
let element_ranks root =
  let acc = ref [] and i = ref 0 in
  Dom.iter_preorder
    (fun n ->
      if Dom.is_element n then acc := !i :: !acc;
      incr i)
    root;
  Array.of_list (List.rev !acc)

(* ------------------------------------------------------------------ *)
(* gen                                                                  *)
(* ------------------------------------------------------------------ *)

(* Dblp.generate appends each publication to the root, which costs the
   root's width per append: wide documents are spliced from serialized
   chunks of 2000 publications instead (seconds saved per run). *)
let dblp_xml ~seed ~publications =
  let body i count =
    let xml =
      Rxml.Serializer.to_string
        (Rworkload.Dblp.generate ~seed:(seed + i) ~publications:count)
    in
    let open_, close = ("<dblp>", "</dblp>") in
    if not (String.starts_with ~prefix:open_ xml && String.ends_with ~suffix:close xml)
    then failwith "pbtool gen: unexpected DBLP serialization";
    String.sub xml (String.length open_)
      (String.length xml - String.length open_ - String.length close)
  in
  let chunk = 2000 in
  let n = (publications + chunk - 1) / chunk in
  "<dblp>"
  ^ String.concat ""
      (List.init n (fun i -> body i (min chunk (publications - (i * chunk)))))
  ^ "</dblp>"

let generate kind param seed =
  let xml root = Rxml.Serializer.to_string root in
  match kind with
  | "xmark" -> xml (Rworkload.Xmark.generate ~seed ~scale:(float_of_string param))
  | "dblp" -> dblp_xml ~seed ~publications:(int_of_string param)
  | "deep" ->
    xml
      (Rworkload.Shape.generate ~seed ~target:(int_of_string param)
         (Rworkload.Shape.Deep { fanout = 3; bias = 0.85 }))
  | _ -> failwith ("pbtool gen: unknown document kind " ^ kind)

(* Writes DIR/<name>.xml per spec line [name kind param seed] and prints
   [name bytes nodes], nodes as the server's streaming build counts them.
   A fifth field [ranks] also writes DIR/<name>.ranks. *)
let gen spec dir =
  List.iter
    (function
      | name :: kind :: param :: seed :: rest ->
        let xml = generate kind param (int_of_string seed) in
        let path = Filename.concat dir (name ^ ".xml") in
        Out_channel.with_open_bin path (fun oc -> output_string oc xml);
        (* the fan-out adjustment does not change the node count *)
        let b = Sb.of_string ~max_area_size ~adjust:false xml in
        if rest = [ "ranks" ] then
          Out_channel.with_open_bin
            (Filename.concat dir (name ^ ".ranks"))
            (fun oc ->
              Array.iter
                (fun r -> if r > 0 then Printf.fprintf oc "%d\n" r)
                (element_ranks (R2.root b.Sb.r2)));
        Printf.printf "%s\t%d\t%d\n%!" name (String.length xml)
          b.Sb.stats.Sb.nodes
      | _ -> failwith "pbtool gen: bad spec line")
    (lines spec)

(* ------------------------------------------------------------------ *)
(* oracle                                                               *)
(* ------------------------------------------------------------------ *)

(* For every (query, document) pair prints [qi di count], counted by the
   tree-walking engine over the document as the server builds it. *)
let oracle docs queries =
  let engines =
    List.map
      (function
        | [ _name; path ] ->
          Rxpath.Engine_naive.create (Sb.of_string ~max_area_size (read_file path)).Sb.doc
        | _ -> failwith "pbtool oracle: bad docs line")
      (lines docs)
  in
  List.iteri
    (fun qi q ->
      let u = Rxpath.Xparser.parse_union (String.concat "\t" q) in
      List.iteri
        (fun di e ->
          Printf.printf "%d\t%d\t%d\n" qi di
            (List.length (Rxpath.Eval.select_union e u)))
        engines)
    (lines queries)

(* ------------------------------------------------------------------ *)
(* trace                                                                *)
(* ------------------------------------------------------------------ *)

type sums = {
  mutable lex : float;
  mutable build : float;
  mutable cut : float;
  mutable adjust : float;
  mutable number : float;
  mutable index : float;
  mutable install : float;
  mutable publish : float;
  mutable e2e : float;
  mutable nodes : int;
  mutable aux_words : int;
}

let zero () =
  { lex = 0.; build = 0.; cut = 0.; adjust = 0.; number = 0.; index = 0.;
    install = 0.; publish = 0.; e2e = 0.; nodes = 0; aux_words = 0 }

(* The ADDDOC path ({!Rserver.Service}: streaming build, persist, journal,
   publish) timed as a whole, then each ingest stage timed alone over the
   same bytes.  [Stream_build.of_source ~adjust:false] covers lex, build,
   cut and number in one pass; the cut, number and index parts are re-run
   alone on its tree.  Returns the served numbering. *)
let ingest ~work (s : sums) name xml =
  let base = Filename.concat work name in
  let b, t_build =
    timed (fun () -> Sb.of_string ~max_area_size xml)
  in
  let (), t_install =
    timed (fun () ->
        Ruid.Persist.save b.Sb.r2 ~xml:(base ^ ".xml") ~sidecar:(base ^ ".ruid"))
  in
  let _, t_wal = timed (fun () -> Wal.create (base ^ ".wal")) in
  let _, t_publish =
    timed (fun () ->
        Snapshot.add_doc
          (Snapshot.capture ~version:0 [])
          ~planner:(Planner.make_shared ()) ~version:1 ~name b.Sb.r2)
  in
  s.e2e <- s.e2e +. t_build +. t_install +. t_wal +. t_publish;
  s.install <- s.install +. t_install;
  s.publish <- s.publish +. t_publish;
  s.nodes <- s.nodes + b.Sb.stats.Sb.nodes;
  let coll = Rxpath.Collection.create ~max_area_size () in
  ignore (Rxpath.Collection.add_numbered coll ~name b.Sb.r2);
  s.aux_words <- s.aux_words + Rxpath.Collection.aux_memory_words coll;
  let (), t_lex =
    timed (fun () -> Sax.iter_source (Sax.source_of_string xml) ~f:ignore)
  in
  s.lex <- s.lex +. t_lex;
  let nb, t_nb =
    timed (fun () ->
        Sb.of_source ~max_area_size ~adjust:false (Sax.source_of_string xml))
  in
  s.build <- s.build +. t_nb;
  let fr, t_cut =
    timed (fun () -> Ruid.Frame.partition ~max_area_size ~adjust:false nb.Sb.doc)
  in
  s.cut <- s.cut +. t_cut;
  let (), t_adjust = timed (fun () -> Ruid.Frame.adjust_fanout fr) in
  s.adjust <- s.adjust +. t_adjust;
  let r2, t_number = timed (fun () -> R2.number_with_frame fr) in
  s.number <- s.number +. t_number;
  let _, t_index = timed (fun () -> Rxpath.Doc_index.build r2) in
  s.index <- s.index +. t_index;
  b.Sb.r2

let shard_of name = Rserver.Shard_map.hash ~shards:2 name

type write_times = {
  mutable apply : float list;  (** Wal.apply *)
  mutable batch : float list;  (** Wal.append_batch: write + fsync *)
  mutable fsync : float list;  (** Wal.flush after Wal.append_record *)
  mutable clone : float list;  (** Ruid2.clone of the published copy *)
  mutable index : float list;  (** Doc_index.build of the published copy *)
  mutable advance : float list;  (** Snapshot.advance by the operation *)
}

(* [pairs] INSERT/DELETE pairs at random elements: each operation applied
   to the master, journaled and published incrementally, as the commit
   pipeline does (the INSERT as a synced batch, the DELETE as an unsynced
   append and a flush, so both journal calls are timed). *)
let write_pairs ~wal_path ~pairs ~seed master =
  let t = { apply = []; batch = []; fsync = []; clone = []; index = []; advance = [] } in
  let shared = Planner.make_shared () in
  let snap = ref (Snapshot.capture ~planner:shared ~version:1 [ ("hot", master) ]) in
  let w = Wal.create wal_path in
  let ranks = element_ranks (R2.root master) in
  let rng = Rworkload.Rng.create seed in
  let step op ~sync =
    let (area, changed), dt = timed (fun () -> Wal.apply master op) in
    t.apply <- dt :: t.apply;
    let r = { Wal.seq = Wal.seq w + 1; op; area; changed } in
    if sync then t.batch <- snd (timed (fun () -> Wal.append_batch w [ r ])) :: t.batch
    else begin
      Wal.append_record w r;
      t.fsync <- snd (timed (fun () -> Wal.flush w)) :: t.fsync
    end;
    let d = (!snap).Snapshot.docs.(0) in
    t.clone <- snd (timed (fun () -> R2.clone d.Snapshot.r2)) :: t.clone;
    t.index <- snd (timed (fun () -> Rxpath.Doc_index.build d.Snapshot.r2)) :: t.index;
    let version = !snap.Snapshot.version + 1 in
    let (s, _), dt =
      timed (fun () -> Snapshot.advance !snap ~version [ (0, [ op ], version) ])
    in
    t.advance <- dt :: t.advance;
    snap := s
  in
  for _ = 1 to pairs do
    let p = ranks.(Rworkload.Rng.int rng (Array.length ranks)) in
    step (Wal.Insert { parent_rank = p; pos = 0; tag = "m" }) ~sync:true;
    step (Wal.Delete { rank = p + 1 }) ~sync:false
  done;
  t

let trace spec =
  let spec = lines spec in
  let field key = List.filter_map (function k :: r when k = key -> Some r | _ -> None) spec in
  let work =
    match field "work" with [ [ d ] ] -> d | _ -> failwith "pbtool trace: no work dir"
  in
  (* -- ingest stages over every workload document, then per-shape probes *)
  let s = zero () in
  let by_shape = Hashtbl.create 4 in
  let shape_sums shape =
    match Hashtbl.find_opt by_shape shape with
    | Some x -> x
    | None ->
      let x = zero () in
      Hashtbl.replace by_shape shape x;
      x
  in
  let masters = Hashtbl.create 16 and kept = ref [] in
  List.iter
    (function
      | [ name; shape; path; keep ] ->
        let xml = read_file path in
        let sh = shape_sums shape in
        let before = (s.e2e, s.nodes) in
        let r2 = ingest ~work s name xml in
        sh.e2e <- sh.e2e +. (s.e2e -. fst before);
        sh.nodes <- sh.nodes + (s.nodes - snd before);
        if keep = "1" then begin
          Hashtbl.replace masters name r2;
          kept := name :: !kept
        end
      | _ -> failwith "pbtool trace: bad doc line")
    (field "doc");
  List.iter
    (function
      | [ shape; path ] when not (Hashtbl.mem by_shape shape) ->
        ignore (ingest ~work (shape_sums shape) ("probe_" ^ shape) (read_file path))
      | _ -> ())
    (field "probe");
  let ms x = x *. 1000. in
  emit "ingest.lex_ms" (ms s.lex);
  emit "ingest.build_ms" (ms s.build);
  emit "ingest.cut_ms" (ms s.cut);
  emit "ingest.adjust_ms" (ms s.adjust);
  emit "ingest.number_ms" (ms s.number);
  emit "ingest.index_ms" (ms s.index);
  emit "ingest.install_ms" (ms s.install);
  emit "ingest.publish_ms" (ms s.publish);
  emit "ingest.e2e_ms" (ms s.e2e);
  emit "ingest.stage_cover"
    ((s.build +. s.adjust +. s.install +. s.publish) /. s.e2e);
  List.iter
    (fun shape ->
      let x = shape_sums shape in
      emit ("ingest.us_per_node_" ^ shape) (x.e2e *. 1e6 /. float_of_int x.nodes))
    [ "xmark"; "dblp"; "deep" ];
  emit "ruid2.aux_b_per_node"
    (float_of_int (s.aux_words * (Sys.word_size / 8)) /. float_of_int s.nodes);
  let master name =
    match Hashtbl.find_opt masters name with
    | Some r2 -> r2
    | None -> failwith ("pbtool trace: not a kept document: " ^ name)
  in
  (* -- planner stages per query class *)
  let nocache = Planner.make_shared ~plan_cache:0 () in
  let shards = [| Planner.make_shared (); Planner.make_shared () |] in
  let planners = Hashtbl.create 16 in
  let planner name =
    match Hashtbl.find_opt planners name with
    | Some p -> p
    | None ->
      let r2 = master name in
      let p =
        ( Planner.create ~shared:nocache r2,
          Planner.create ~shared:shards.(shard_of name) r2,
          Snapshot.capture ~planner:shards.(shard_of name) ~version:1
            [ (name, r2) ] )
      in
      Hashtbl.replace planners name p;
      p
  in
  let class_docs =
    match field "classdocs" with
    | [ names ] -> names
    | _ -> failwith "pbtool trace: no classdocs line"
  in
  let per_class = Hashtbl.create 4 in
  let covered = ref 0. and served = ref 0. in
  List.iter
    (function
      | [ cls; q ] ->
        let u = Rxpath.Xparser.parse_union q in
        List.iter
          (fun name ->
            let cold, warm, snap = planner name in
            let parse = per_call (fun () -> Rxpath.Xparser.parse_union q) in
            let plan = per_call (fun () -> Planner.plan_for cold u) in
            let exec = per_call (fun () -> Planner.select_union warm u) in
            let eval =
              per_call (fun () -> Rserver.Service.eval_read snap (Rserver.Protocol.Count q))
            in
            covered := !covered +. parse +. exec;
            served := !served +. eval;
            let p, l, e = Option.value ~default:([], [], []) (Hashtbl.find_opt per_class cls) in
            Hashtbl.replace per_class cls (parse :: p, plan :: l, exec :: e))
          class_docs
      | _ -> failwith "pbtool trace: bad class line")
    (field "class");
  List.iter
    (fun cls ->
      let p, l, e = Option.value ~default:([], [], []) (Hashtbl.find_opt per_class cls) in
      let us x = mean x *. 1e6 in
      emit ("planner.parse_us." ^ cls) (us p);
      emit ("planner.plan_us." ^ cls) (us l);
      emit ("planner.execute_us." ^ cls) (us e))
    [ "chain"; "twig"; "pruned"; "fallback" ];
  emit "planner.stage_cover" (!covered /. !served);
  (* -- the workload's own draw sequence: cache outcome and plan kind per
     document evaluation, as a shard's planners would see them *)
  let hits = ref 0 and lookups = ref 0 and evals = ref 0 and fallbacks = ref 0 in
  let t_all = ref 0. and t_fallback = ref 0. in
  List.iteri
    (fun i -> function
      | [ target; q ] ->
        let u = Rxpath.Xparser.parse_union q in
        let targets = if target = "*" then List.rev !kept else [ target ] in
        List.iter
          (fun name ->
            let _, warm, _ = planner name in
            let plan, outcome = Planner.plan_for warm u in
            (match outcome with
            | Planner.Hit -> incr hits; incr lookups
            | Planner.Miss -> incr lookups
            | Planner.Bypass -> ());
            incr evals;
            let fb = Planner.kind plan = `Engine in
            if fb then incr fallbacks;
            (* executing every draw would cost seconds; the first 300 give
               the time shares *)
            if i < 300 then begin
              let _, dt = timed (fun () -> Planner.select_union warm u) in
              t_all := !t_all +. dt;
              if fb then t_fallback := !t_fallback +. dt
            end)
          targets
      | _ -> failwith "pbtool trace: bad draw line")
    (field "draw");
  emit "planner.cache_hit_ratio" (float_of_int !hits /. float_of_int (max 1 !lookups));
  emit "planner.fallback_share" (float_of_int !fallbacks /. float_of_int (max 1 !evals));
  emit "planner.fallback_time_share" (!t_fallback /. !t_all);
  (* -- in-process read path for the service round-trip subtraction *)
  List.iteri
    (fun i -> function
      | [ name; q ] ->
        let _, _, snap = planner name in
        Printf.printf "rtt.%d\t%.6g\n" i
          (ms (per_call (fun () -> Rserver.Service.eval_read snap (Rserver.Protocol.Count q))))
      | _ -> failwith "pbtool trace: bad rtt line")
    (field "rtt");
  (* -- the write path on the hot document *)
  (match field "hot" with
  | [ [ name; pairs; seed ] ] ->
    let t =
      write_pairs ~wal_path:(Filename.concat work "hot-trace.wal")
        ~pairs:(int_of_string pairs) ~seed:(int_of_string seed) (master name)
    in
    let m l = ms (median l) in
    emit "wal.apply_ms" (m t.apply);
    emit "wal.append_ms" (m t.batch);
    emit "wal.fsync_ms" (m t.fsync);
    emit "snapshot.advance_ms" (m t.advance);
    emit "ruid2.clone_ms" (m t.clone);
    emit "doc_index.build_ms" (m t.index)
  | _ -> failwith "pbtool trace: expected one hot line");
  (* -- Section 3.2 curve: publication cost against document size *)
  match field "curve" with
  | [ [ seed ] ] ->
    List.iter
      (fun (label, scale) ->
        let xml =
          Rxml.Serializer.to_string
            (Rworkload.Xmark.generate ~seed:(int_of_string seed) ~scale)
        in
        let b = Sb.of_string ~max_area_size xml in
        let t =
          write_pairs
            ~wal_path:(Filename.concat work ("curve-" ^ label ^ ".wal"))
            ~pairs:5 ~seed:(int_of_string seed) b.Sb.r2
        in
        emit (Printf.sprintf "snapshot.advance_%s_ms" label) (ms (median t.advance));
        emit (Printf.sprintf "snapshot.nodes_%s" label)
          (float_of_int b.Sb.stats.Sb.nodes))
      [ ("2k", 0.5); ("10k", 2.5); ("40k", 10.) ]
  | _ -> failwith "pbtool trace: expected one curve line"

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; spec; dir ] -> gen spec dir
  | [ _; "oracle"; docs; queries ] -> oracle docs queries
  | [ _; "trace"; spec ] -> trace spec
  | _ ->
    prerr_endline
      "usage: pbtool gen SPEC DIR | pbtool oracle DOCS QUERIES | pbtool trace SPEC";
    exit 2

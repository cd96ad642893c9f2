module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module G = Rsummary.Dataguide

(* ------------------------------------------------------------------ *)
(* Plan algebra                                                        *)
(* ------------------------------------------------------------------ *)

type edge = Child | Descendant

let edge_name = function Child -> "child" | Descendant -> "descendant"

(* Physical operator joining one chain position to the next:
   - Probe: per-node parent/ancestor pointer work (hash-deduplicated);
   - Merge: linear sweep of both rank-ordered sides (stack-tree up,
     max-extent-end down);
   - Range: binary-search the posting array per upper extent (down only,
     lower side must be a whole posting list);
   - Walk: generate children of each upper and test the tag (down/child
     only). *)
type jmethod = Probe | Merge | Range | Walk

let jmethod_name = function
  | Probe -> "probe"
  | Merge -> "merge"
  | Range -> "range"
  | Walk -> "walk"

type cstep = { cedge : edge; ctag : string }

type chain = {
  cabs : bool;
  csteps : cstep array;
  card : int array;  (* posting cardinality per position, at plan time *)
  est : int array;  (* estimated matches per position; -1 when unknown *)
  pivot : int;  (* position whose postings seed the up phase *)
  up_meth : jmethod array;  (* method producing S_i, for i < pivot *)
  down_meth : jmethod array;  (* method producing D_i; slot 0 = anchor *)
  ccost : float;
}

type plan =
  | Empty of string  (* guide refutation: why no node can match *)
  | Chain of chain
  | TwigJoin of { twig : Twig.pattern; tabs : bool; t_est : int; tcost : float }
  | Fallback of Ast.union_path

type kind = [ `Chain | `Twig | `Engine | `Pruned ]

let kind = function
  | Empty _ -> `Pruned
  | Chain _ -> `Chain
  | TwigJoin _ -> `Twig
  | Fallback _ -> `Engine

let kind_name = function
  | `Chain -> "chain-join"
  | `Twig -> "twig-join"
  | `Engine -> "engine-fallback"
  | `Pruned -> "guide-pruned"

(* ------------------------------------------------------------------ *)
(* Shared state: plan cache + per-strategy counters                    *)
(* ------------------------------------------------------------------ *)

type counters = {
  chain_runs : int Atomic.t;
  twig_runs : int Atomic.t;
  engine_runs : int Atomic.t;
  pruned_runs : int Atomic.t;
}

type shared = { cache : plan Plan_cache.t option; counters : counters }

type stats = {
  chain : int;
  twig : int;
  engine : int;
  pruned : int;
  cache_stats : Plan_cache.stats option;
}

let make_shared ?(plan_cache = 256) () =
  {
    cache =
      (if plan_cache <= 0 then None
       else Some (Plan_cache.create ~capacity:plan_cache));
    counters =
      {
        chain_runs = Atomic.make 0;
        twig_runs = Atomic.make 0;
        engine_runs = Atomic.make 0;
        pruned_runs = Atomic.make 0;
      };
  }

let shared_stats sh =
  {
    chain = Atomic.get sh.counters.chain_runs;
    twig = Atomic.get sh.counters.twig_runs;
    engine = Atomic.get sh.counters.engine_runs;
    pruned = Atomic.get sh.counters.pruned_runs;
    cache_stats = Option.map Plan_cache.stats sh.cache;
  }

(* ------------------------------------------------------------------ *)
(* Planner instance                                                    *)
(* ------------------------------------------------------------------ *)

type t = {
  r2 : R2.t;
  index : Doc_index.t;
  engine : Eval.engine;
  guide : G.t;
  doc_rooted : bool;  (* numbering root is a document node, not an element *)
  shared : shared;
}

let make ~shared ~guide r2 =
  let index = Doc_index.build r2 in
  {
    r2;
    index;
    engine = Engine_ruid.create ~index r2;
    guide;
    doc_rooted = not (Dom.is_element (R2.root r2));
    shared;
  }

let create ?shared r2 =
  let shared = match shared with Some s -> s | None -> make_shared () in
  make ~shared ~guide:(G.build (R2.root r2)) r2

let engine t = t.engine
let shared_of t = t.shared
let guide t = t.guide
let guide_fingerprint t = G.fingerprint t.guide

type delta = Add of string list | Remove of string list

let advance prev r2 ~deltas =
  let guide =
    let g = G.clone prev.guide in
    let consistent =
      List.for_all
        (function
          | Add p ->
            G.add_path g p;
            true
          | Remove p -> G.remove_path g p)
        deltas
    in
    if consistent then begin
      G.prune g;
      g
    end
    else G.build (R2.root r2)  (* deltas disagree with the guide: rebuild *)
  in
  make ~shared:prev.shared ~guide r2

let rooted t = function None -> true | Some c -> c == R2.root t.r2

(* ------------------------------------------------------------------ *)
(* Guide reasoning: frontiers, satisfiability, exact path counts       *)
(* ------------------------------------------------------------------ *)

(* Absolute paths (and, when the context is the root, relative ones too)
   anchor where the evaluator anchors them: at the document node when the
   numbering covers one, else at the root element.  The guide's virtual
   root plays the document node; an element-rooted tree starts one level
   down. *)
let start_frontier t =
  let root = G.cursor t.guide in
  if t.doc_rooted then [ root ] else G.cursor_children root

let exists_desc pred c =
  let rec go c =
    List.exists (fun ch -> pred ch || go ch) (G.cursor_children c)
  in
  go c

let dedup_cursors l =
  List.rev
    (List.fold_left
       (fun acc c -> if List.memq c acc then acc else c :: acc)
       [] l)

let gstep frontier { cedge; ctag } =
  let matching c = G.cursor_label c = ctag in
  let nexts =
    List.concat_map
      (fun c ->
        match cedge with
        | Child -> List.filter matching (G.cursor_children c)
        | Descendant ->
          let acc = ref [] in
          let rec go c =
            List.iter
              (fun ch ->
                if matching ch then acc := ch :: !acc;
                go ch)
              (G.cursor_children c)
          in
          go c;
          !acc)
      frontier
  in
  dedup_cursors nexts

(* Can the chain suffix steps.(i..) be realized strictly below cursor [c]? *)
let rec has_suffix steps n i c =
  if i >= n then true
  else
    let { cedge; ctag } = steps.(i) in
    let pred ch = G.cursor_label ch = ctag && has_suffix steps n (i + 1) ch in
    match cedge with
    | Child -> List.exists pred (G.cursor_children c)
    | Descendant -> exists_desc pred c

let all_cursors t =
  let acc = ref [] in
  let rec go c =
    List.iter
      (fun ch ->
        acc := ch :: !acc;
        go ch)
      (G.cursor_children c)
  in
  go (G.cursor t.guide);
  !acc

let sum_counts frontier =
  List.fold_left (fun acc c -> acc + G.cursor_count c) 0 frontier

(* Twig satisfiability against the guide: does any label configuration of
   the document realize the whole pattern (spine and branches) from the
   root anchor?  Purely structural, so sound under count drift. *)
let twig_sat t (pat : Twig.pattern) =
  let rec matches c (p : Twig.pattern) =
    G.cursor_label c = p.Twig.tag
    && List.for_all (connect c) p.Twig.branches
    && (match p.Twig.spine with None -> true | Some sp -> connect c sp)
  and connect c (p : Twig.pattern) =
    let pred ch = matches ch p in
    match p.Twig.edge with
    | Twig.Child -> List.exists pred (G.cursor_children c)
    | Twig.Descendant -> exists_desc pred c
  in
  List.exists (fun st -> connect st pat) (start_frontier t)

(* ------------------------------------------------------------------ *)
(* Chain extraction from the AST                                       *)
(* ------------------------------------------------------------------ *)

(* The maximal prefix of child/descendant name-test steps, predicates
   ignored — every result node must descend through these labels, so an
   unrealizable prefix refutes the whole path.  [pure] when the entire
   path is the chain and carries no predicates: only then can the chain
   plan compute the answer by itself. *)
let chain_of_steps steps =
  let rec go acc pure = function
    | [] -> (List.rev acc, pure)
    | { Ast.axis = Ast.Descendant_or_self; test = Ast.Node_any; preds = [] }
      :: { Ast.axis = Ast.Child; test = Ast.Name tag; preds }
      :: rest ->
      go ({ cedge = Descendant; ctag = tag } :: acc) (pure && preds = []) rest
    | { Ast.axis = Ast.Child; test = Ast.Name tag; preds } :: rest ->
      go ({ cedge = Child; ctag = tag } :: acc) (pure && preds = []) rest
    | { Ast.axis = Ast.Descendant; test = Ast.Name tag; preds } :: rest ->
      go ({ cedge = Descendant; ctag = tag } :: acc) (pure && preds = []) rest
    | _ :: _ -> (List.rev acc, false)
  in
  go [] true steps

let rec spine_steps (p : Twig.pattern) =
  {
    cedge = (match p.Twig.edge with Twig.Child -> Child | Twig.Descendant -> Descendant);
    ctag = p.Twig.tag;
  }
  :: (match p.Twig.spine with None -> [] | Some sp -> spine_steps sp)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

(* Unit: one pointer/arithmetic touch.  [c_anc]/[c_fan] charge pointer
   walks per node (average depth / fanout), [c_interp] the evaluator's
   interpretive overhead per generated node (axis dispatch, node tests,
   per-step sort-merge) relative to a compiled join loop. *)
let c_anc = 8.
let c_fan = 8.
let c_interp = 4.
let c_pred = 12.

let f i = float_of_int (max 1 i)
let sortc k = if k <= 1. then 0. else k *. Float.log2 (k +. 1.)

let up_cost edge ~u ~l =
  match edge with
  | Child -> (Probe, l +. sortc l)
  | Descendant ->
    let merge = u +. l and probe = (l *. c_anc) +. sortc l in
    if probe < merge then (Probe, probe) else (Merge, merge)

let down_cost edge ~u ~l ~out ~lower_is_postings =
  match edge with
  | Child ->
    let probe = u +. l and walk = (u *. c_fan) +. sortc out in
    if walk < probe then (Walk, walk) else (Probe, probe)
  | Descendant ->
    let merge = u +. l in
    if lower_is_postings then begin
      let range = (u *. 2. *. Float.log2 (l +. 2.)) +. out in
      if range < merge then (Range, range) else (Merge, merge)
    end
    else (Merge, merge)

(* What the fallback evaluator would pay, from the original AST. *)
let engine_cost_path t (path : Ast.path) =
  let total = float_of_int (Doc_index.size t.index) in
  let rec go ctx = function
    | [] -> 0.
    | (s : Ast.step) :: rest ->
      let card =
        match s.test with
        | Ast.Name tag -> float_of_int (Doc_index.cardinality t.index tag)
        | _ -> total /. 2.
      in
      let out =
        match s.axis with
        | Ast.Child | Ast.Attribute | Ast.Parent | Ast.Self ->
          Float.min card (ctx *. c_fan)
        | Ast.Descendant | Ast.Descendant_or_self -> Float.max card ctx
        | _ -> Float.min total (Float.max card ctx)
      in
      let axis_cost =
        match s.axis with
        | Ast.Descendant | Ast.Descendant_or_self | Ast.Following
        | Ast.Preceding ->
          (ctx *. 2. *. Float.log2 (card +. 2.)) +. (out *. c_interp)
        | _ -> ctx *. c_fan *. c_interp
      in
      let pred_cost = float_of_int (List.length s.preds) *. c_pred *. out in
      axis_cost +. pred_cost +. go out rest
  in
  go 1. path.Ast.steps

let engine_cost_union t u =
  List.fold_left (fun acc p -> acc +. engine_cost_path t p) 0. u

(* Merge-based semijoins: bottom-up, every pattern edge is one linear
   pass over the two posting lists it joins (parent-hash for child
   edges, stack-tree for descendant edges); top-down, each spine edge
   pays the same once more.  Charged on raw cardinalities — an upper
   bound, since upstream restrictions only shrink the inputs. *)
let twig_cost t tw =
  let card tag = f (Doc_index.cardinality t.index tag) in
  let rec go (p : Twig.pattern) =
    let kids = p.Twig.branches @ Option.to_list p.Twig.spine in
    let up =
      List.fold_left
        (fun acc (c : Twig.pattern) ->
          acc +. card p.Twig.tag +. card c.Twig.tag)
        0. kids
    in
    let down =
      match p.Twig.spine with
      | Some sp -> card p.Twig.tag +. card sp.Twig.tag
      | None -> 0.
    in
    up +. down +. List.fold_left (fun acc c -> acc +. go c) 0. kids
  in
  go tw

(* ------------------------------------------------------------------ *)
(* Chain planning                                                      *)
(* ------------------------------------------------------------------ *)

(* Enumerate pivots: seed the join pipeline from each position's posting
   list, restrict upward to the anchor, then propagate downward; keep the
   cheapest.  Returns [None] when the engine estimate beats every pivot. *)
let plan_chain t ~use_guide ~absolute (steps : cstep list) ~eng_cost =
  let csteps = Array.of_list steps in
  let n = Array.length csteps in
  let card =
    Array.map (fun s -> Doc_index.cardinality t.index s.ctag) csteps
  in
  (* Guide estimates: [sfx.(i)] — nodes labeled t_i able to complete the
     chain below themselves (up-phase survivor estimate); [est.(i)] —
     nodes additionally reachable through the chain prefix (down-phase
     output estimate; exact at the output position of a rooted pure
     chain). *)
  let sfx, est =
    if use_guide then begin
      let all = all_cursors t in
      let sfx =
        Array.init n (fun i ->
            sum_counts
              (List.filter
                 (fun c ->
                   G.cursor_label c = csteps.(i).ctag
                   && has_suffix csteps n (i + 1) c)
                 all))
      in
      let frontier = ref (start_frontier t) in
      let est =
        Array.init n (fun i ->
            frontier := gstep !frontier csteps.(i);
            sum_counts (List.filter (has_suffix csteps n (i + 1)) !frontier))
      in
      (sfx, est)
    end
    else begin
      (* No guide for this anchoring: fall back to posting cardinalities
         (a chain position can never out-produce its rarest tag). *)
      let sfx = Array.make n 0 and est = Array.make n 0 in
      let acc = ref max_int in
      for i = n - 1 downto 0 do
        acc := min !acc card.(i);
        sfx.(i) <- !acc
      done;
      acc := max_int;
      for i = 0 to n - 1 do
        acc := min !acc card.(i);
        est.(i) <- !acc
      done;
      (sfx, est)
    end
  in
  let best = ref None in
  for pivot = 0 to n - 1 do
    let up_meth = Array.make n Probe in
    let down_meth = Array.make n Merge in
    let cost = ref (f card.(pivot)) in
    (* up phase: restrict positions pivot-1 .. 0 *)
    let lower = ref (f card.(pivot)) in
    for i = pivot - 1 downto 0 do
      let m, c = up_cost csteps.(i + 1).cedge ~u:(f card.(i)) ~l:!lower in
      up_meth.(i) <- m;
      cost := !cost +. c;
      lower := f (min sfx.(i) card.(i))
    done;
    (* anchor: one upper (the root or the context) against S_0 *)
    let m, c =
      down_cost csteps.(0).cedge ~u:1.
        ~l:(f (if pivot = 0 then card.(0) else min sfx.(0) card.(0)))
        ~out:(f est.(0)) ~lower_is_postings:(pivot = 0)
    in
    down_meth.(0) <- m;
    cost := !cost +. c;
    (* down phase: propagate D_1 .. D_{n-1} *)
    for i = 1 to n - 1 do
      let lower_is_postings = i >= pivot in
      let l =
        if lower_is_postings then f card.(i) else f (min sfx.(i) card.(i))
      in
      let m, c =
        down_cost csteps.(i).cedge ~u:(f est.(i - 1)) ~l ~out:(f est.(i))
          ~lower_is_postings
      in
      down_meth.(i) <- m;
      cost := !cost +. c
    done;
    match !best with
    | Some (_, bc) when bc <= !cost -> ()
    | _ -> best := Some ((pivot, up_meth, down_meth), !cost)
  done;
  match !best with
  | None -> None
  | Some ((pivot, up_meth, down_meth), cost) ->
    if eng_cost < cost then None
    else
      Some
        (Chain
           {
             cabs = absolute;
             csteps;
             card;
             est;
             pivot;
             up_meth;
             down_meth;
             ccost = cost;
           })

(* ------------------------------------------------------------------ *)
(* Whole-path and union planning                                       *)
(* ------------------------------------------------------------------ *)

let chain_prefix_refuted t (path : Ast.path) =
  let steps, _ = chain_of_steps path.Ast.steps in
  steps <> []
  &&
  let rec go frontier = function
    | [] -> false
    | s :: rest -> (
      match gstep frontier s with [] -> true | fr -> go fr rest)
  in
  go (start_frontier t) steps

let path_refuted t (path : Ast.path) =
  chain_prefix_refuted t path
  ||
  match Twig.of_xpath path with
  | Some tw -> not (twig_sat t tw)
  | None -> false

let est_of_steps t ~use_guide steps =
  if not use_guide then -1
  else
    sum_counts
      (List.fold_left (fun fr s -> gstep fr s) (start_frontier t) steps)

let plan_path t ~use_guide (path : Ast.path) : plan =
  if use_guide && path_refuted t path then
    Empty
      (Printf.sprintf "no label path of the document can satisfy %s"
         (Ast.path_to_string path))
  else
    let steps, pure = chain_of_steps path.Ast.steps in
    let eng_cost = engine_cost_union t [ path ] in
    let chain_plan =
      if pure && steps <> [] then
        plan_chain t ~use_guide ~absolute:path.Ast.absolute steps ~eng_cost
      else None
    in
    match chain_plan with
    | Some p -> p
    | None -> (
      match Twig.of_xpath path with
      | Some tw ->
        let tc = twig_cost t tw in
        if tc < eng_cost then
          TwigJoin
            {
              twig = tw;
              tabs = path.Ast.absolute;
              t_est = est_of_steps t ~use_guide (spine_steps tw);
              tcost = tc;
            }
        else Fallback [ path ]
      | None -> Fallback [ path ])

let plan_union t ~use_guide (u : Ast.union_path) : plan =
  match u with
  | [ p ] -> plan_path t ~use_guide p
  | ps ->
    if use_guide then begin
      (* Drop provably-empty branches; engine-evaluate the survivors. *)
      match List.filter (fun p -> not (path_refuted t p)) ps with
      | [] ->
        Empty "no label path of the document can satisfy any union branch"
      | alive -> Fallback alive
    end
    else Fallback ps

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

type cache_outcome = Hit | Miss | Bypass

let cache_outcome_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Bypass -> "bypass"

(* Rooted plans are cacheable: the key pairs the guide's structural
   fingerprint with the canonical query text, so value/count drift keeps
   plans live and any structural change orphans them.  Non-root contexts
   plan fresh (cheap — the documents behind ad-hoc contexts are planned
   without the guide anyway). *)
let plan_for t ?context (u : Ast.union_path) =
  let use_guide = rooted t context in
  if not use_guide then (plan_union t ~use_guide u, Bypass)
  else
    match t.shared.cache with
    | None -> (plan_union t ~use_guide u, Bypass)
    | Some cache -> (
      match Xparser.canonical_opt u with
      | None -> (plan_union t ~use_guide u, Bypass)
      | Some key -> (
        let fingerprint = G.fingerprint t.guide in
        match Plan_cache.find cache ~fingerprint key with
        | Some p -> (p, Hit)
        | None ->
          let p = plan_union t ~use_guide u in
          Plan_cache.add cache ~fingerprint key p;
          (p, Miss)))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type trace_row = {
  row_op : string;
  row_est : int;  (* -1: no estimate *)
  row_actual : int;
  row_ms : float;
}

let rank t n = Doc_index.rank t.index n
let by_rank t = fun a b -> compare (rank t a) (rank t b)

(* S_i survivors going up: candidates at position i with a qualifying
   child in [lows]. *)
let up_child t ~tag lows =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  List.iter
    (fun low ->
      match low.Dom.parent with
      | Some p when Dom.is_element p && Dom.tag p = tag ->
        let r = rank t p in
        if not (Hashtbl.mem seen r) then begin
          Hashtbl.replace seen r ();
          acc := p :: !acc
        end
      | _ -> ())
    lows;
  List.sort (by_rank t) !acc

let up_desc_probe t ~tag lows =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  List.iter
    (fun low ->
      List.iter
        (fun a ->
          if Dom.is_element a && Dom.tag a = tag then begin
            let r = rank t a in
            if not (Hashtbl.mem seen r) then begin
              Hashtbl.replace seen r ();
              acc := a :: !acc
            end
          end)
        (Dom.ancestors low))
    lows;
  List.sort (by_rank t) !acc

(* Stack-tree semijoin: keep the uppers (rank order) that contain at
   least one node of [lows] (rank order).  The stack holds the
   currently-open nested uppers; when a lower lands, every open upper
   contains it — mark top-down, stopping at the first already-marked
   entry (its ancestors were marked with it).  Amortized
   O(|uppers| + |lows|). *)
let keep_desc t ~uppers lows =
  let arr = Array.of_list uppers in
  let m = Array.length arr in
  let kept = Hashtbl.create 64 in
  let stack = ref [] in  (* (rank, extent end, marked ref), innermost first *)
  let i = ref 0 in
  List.iter
    (fun low ->
      let dr = rank t low in
      while !i < m && rank t arr.(!i) < dr do
        let r, e = Doc_index.extent t.index arr.(!i) in
        (* entries that ended before this upper starts are dead *)
        stack := List.filter (fun (_, e', _) -> e' >= r) !stack;
        stack := (r, e, ref false) :: !stack;
        incr i
      done;
      stack := List.filter (fun (_, e, _) -> e >= dr) !stack;
      (let rec mark = function
         | (r, _, m) :: rest when not !m ->
           m := true;
           Hashtbl.replace kept r ();
           mark rest
         | _ -> ()
       in
       mark !stack))
    lows;
  List.filter (fun u -> Hashtbl.mem kept (rank t u)) uppers

let up_desc_merge t ~tag lows =
  keep_desc t ~uppers:(Array.to_list (Doc_index.postings t.index tag)) lows

(* Keep the uppers with at least one child in [lows]: hash the lows'
   parent ranks, one membership test per upper. *)
let keep_child t ~uppers lows =
  let parents = Hashtbl.create 64 in
  List.iter
    (fun low ->
      match low.Dom.parent with
      | Some p -> (
        match Doc_index.rank_opt t.index p with
        | Some r -> Hashtbl.replace parents r ()
        | None -> ())
      | None -> ())
    lows;
  List.filter (fun u -> Hashtbl.mem parents (rank t u)) uppers

(* D_i going down: lowers with a qualifying upper above them. *)
let down_child_probe t ~uppers lows =
  let tbl = Hashtbl.create 64 in
  List.iter (fun u -> Hashtbl.replace tbl (rank t u) ()) uppers;
  List.filter
    (fun low ->
      match low.Dom.parent with
      | Some p -> (
        match Doc_index.rank_opt t.index p with
        | Some r -> Hashtbl.mem tbl r
        | None -> false)
      | None -> false)
    lows

let down_child_walk t ~uppers ~tag =
  List.concat_map
    (fun u ->
      List.filter (fun c -> Dom.is_element c && Dom.tag c = tag) u.Dom.children)
    uppers
  |> List.sort (by_rank t)

let down_desc_merge t ~uppers lows =
  let rec go maxend ups lows acc =
    match lows with
    | [] -> List.rev acc
    | d :: drest ->
      let dr = rank t d in
      let rec adv maxend ups =
        match ups with
        | u :: urest when rank t u < dr ->
          let _, e = Doc_index.extent t.index u in
          adv (max maxend e) urest
        | _ -> (maxend, ups)
      in
      let maxend, ups = adv maxend ups in
      go maxend ups drest (if dr <= maxend then d :: acc else acc)
  in
  go (-1) uppers lows []

let down_desc_range t ~uppers ~tag =
  let arr = Doc_index.postings t.index tag in
  let m = Array.length arr in
  if m = 0 then []
  else begin
    let rank_at i = rank t arr.(i) in
    let lower_bound target =
      let lo = ref 0 and hi = ref m in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if rank_at mid < target then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let marked = Bytes.make m '\000' in
    let minlo = ref m and maxhi = ref (-1) in
    List.iter
      (fun u ->
        let r, e = Doc_index.extent t.index u in
        let lo = lower_bound (r + 1) in
        let hi = lower_bound (e + 1) - 1 in
        if lo <= hi then begin
          if lo < !minlo then minlo := lo;
          if hi > !maxhi then maxhi := hi;
          Bytes.fill marked lo (hi - lo + 1) '\001'
        end)
      uppers;
    let acc = ref [] in
    for i = !maxhi downto !minlo do
      if Bytes.get marked i = '\001' then acc := arr.(i) :: !acc
    done;
    !acc
  end

let now_ms () = Unix.gettimeofday () *. 1000.

let run_chain t ?context ch ~trace =
  let n = Array.length ch.csteps in
  let record op est actual t0 =
    match trace with
    | None -> ()
    | Some rows ->
      rows :=
        { row_op = op; row_est = est; row_actual = actual;
          row_ms = now_ms () -. t0 }
        :: !rows
  in
  let postings i = Array.to_list (Doc_index.postings t.index ch.csteps.(i).ctag) in
  let start =
    match context with
    | Some c when not ch.cabs -> c
    | _ -> R2.root t.r2
  in
  (* up phase *)
  let s = Array.make n [] in
  let t0 = now_ms () in
  s.(ch.pivot) <- postings ch.pivot;
  record
    (Printf.sprintf "scan postings(%s)" ch.csteps.(ch.pivot).ctag)
    ch.card.(ch.pivot)
    (List.length s.(ch.pivot))
    t0;
  for i = ch.pivot - 1 downto 0 do
    let t0 = now_ms () in
    let edge = ch.csteps.(i + 1).cedge in
    let tag = ch.csteps.(i).ctag in
    let meth = ch.up_meth.(i) in
    s.(i) <-
      (match (edge, meth) with
      | Child, _ -> up_child t ~tag s.(i + 1)
      | Descendant, Merge -> up_desc_merge t ~tag s.(i + 1)
      | Descendant, _ -> up_desc_probe t ~tag s.(i + 1));
    record
      (Printf.sprintf "up-join %s::%s (%s)" (edge_name edge) tag
         (jmethod_name (match edge with Child -> Probe | Descendant -> meth)))
      (-1)
      (List.length s.(i))
      t0
  done;
  (* anchor D_0 at the start node *)
  let t0 = now_ms () in
  let d0 =
    let e0 = ch.csteps.(0).cedge in
    if e0 = Descendant && start == R2.root t.r2 && t.doc_rooted then
      (* every element strictly descends from the document node *)
      s.(0)
    else
      match e0 with
      | Child -> down_child_probe t ~uppers:[ start ] s.(0)
      | Descendant -> down_desc_merge t ~uppers:[ start ] s.(0)
  in
  record
    (Printf.sprintf "anchor %s::%s" (edge_name ch.csteps.(0).cedge)
       ch.csteps.(0).ctag)
    ch.est.(0) (List.length d0) t0;
  (* down phase *)
  let d = ref d0 in
  for i = 1 to n - 1 do
    let t0 = now_ms () in
    let edge = ch.csteps.(i).cedge and tag = ch.csteps.(i).ctag in
    let lows () = if i <= ch.pivot then s.(i) else postings i in
    let meth = ch.down_meth.(i) in
    (d :=
       match (edge, meth) with
       | Child, Walk -> down_child_walk t ~uppers:!d ~tag
       | Child, _ -> down_child_probe t ~uppers:!d (lows ())
       | Descendant, Range -> down_desc_range t ~uppers:!d ~tag
       | Descendant, _ -> down_desc_merge t ~uppers:!d (lows ()));
    record
      (Printf.sprintf "down-join %s::%s (%s)" (edge_name edge) tag
         (jmethod_name meth))
      ch.est.(i) (List.length !d) t0
  done;
  !d

(* Native twig execution: the same posting-array joins as chains,
   arranged over the pattern tree.  Bottom-up, [solve] restricts each
   pattern node's postings to candidates that can embed everything below
   them — each branch and the spine continuation are one semijoin
   (parent-hash for child edges, stack-tree for descendant edges).
   Top-down, matches propagate from the anchor along the spine only;
   branches are existential and were fully discharged going up.  Both
   phases preserve rank order, so the output is in document order. *)
type solved = {
  s_nodes : Dom.t list;
  s_spine : (Twig.pattern * solved) option;
}

let run_twig t ?context ~trace ~tabs ~t_est pat =
  let record op est actual t0 =
    match trace with
    | None -> ()
    | Some rows ->
      rows :=
        { row_op = op; row_est = est; row_actual = actual;
          row_ms = now_ms () -. t0 }
        :: !rows
  in
  let rec solve (p : Twig.pattern) =
    let below =
      List.map (fun b -> (b, solve b)) p.Twig.branches
      @ (match p.Twig.spine with Some sp -> [ (sp, solve sp) ] | None -> [])
    in
    let t0 = now_ms () in
    let cands =
      List.fold_left
        (fun uppers ((c : Twig.pattern), s) ->
          match c.Twig.edge with
          | Twig.Child -> keep_child t ~uppers s.s_nodes
          | Twig.Descendant -> keep_desc t ~uppers s.s_nodes)
        (Array.to_list (Doc_index.postings t.index p.Twig.tag))
        below
    in
    record
      (Printf.sprintf "twig-up %s [%d joins]" p.Twig.tag (List.length below))
      (Doc_index.cardinality t.index p.Twig.tag)
      (List.length cands) t0;
    {
      s_nodes = cands;
      s_spine =
        (match p.Twig.spine with
        | Some sp -> Some (sp, List.assq sp below)
        | None -> None);
    }
  in
  let s0 = solve pat in
  let start =
    match context with
    | Some c when not tabs -> c
    | _ -> R2.root t.r2
  in
  let t0 = now_ms () in
  let d0 =
    if pat.Twig.edge = Twig.Descendant && start == R2.root t.r2 && t.doc_rooted
    then s0.s_nodes
    else
      match pat.Twig.edge with
      | Twig.Child -> down_child_probe t ~uppers:[ start ] s0.s_nodes
      | Twig.Descendant -> down_desc_merge t ~uppers:[ start ] s0.s_nodes
  in
  record
    (Printf.sprintf "twig-anchor %s::%s"
       (match pat.Twig.edge with Twig.Child -> "child" | Twig.Descendant -> "desc")
       pat.Twig.tag)
    (if s0.s_spine = None then t_est else -1)
    (List.length d0) t0;
  let rec down d s =
    match s.s_spine with
    | None -> d
    | Some ((sp : Twig.pattern), ssub) ->
      let t0 = now_ms () in
      let d' =
        match sp.Twig.edge with
        | Twig.Child -> down_child_probe t ~uppers:d ssub.s_nodes
        | Twig.Descendant -> down_desc_merge t ~uppers:d ssub.s_nodes
      in
      record
        (Printf.sprintf "twig-down %s::%s"
           (match sp.Twig.edge with
           | Twig.Child -> "child"
           | Twig.Descendant -> "desc")
           sp.Twig.tag)
        (if ssub.s_spine = None then t_est else -1)
        (List.length d') t0;
      down d' ssub
  in
  down d0 s0

let bump t = function
  | Empty _ -> Atomic.incr t.shared.counters.pruned_runs
  | Chain _ -> Atomic.incr t.shared.counters.chain_runs
  | TwigJoin _ -> Atomic.incr t.shared.counters.twig_runs
  | Fallback _ -> Atomic.incr t.shared.counters.engine_runs

let run_plan t ?context ~trace p =
  bump t p;
  let record op est actual t0 =
    match trace with
    | None -> ()
    | Some rows ->
      rows :=
        { row_op = op; row_est = est; row_actual = actual;
          row_ms = now_ms () -. t0 }
        :: !rows
  in
  match p with
  | Empty reason ->
    record (Printf.sprintf "guide-refute (%s)" reason) 0 0 (now_ms ());
    []
  | Chain ch -> run_chain t ?context ch ~trace
  | TwigJoin { twig; tabs; t_est; _ } -> run_twig t ?context ~trace ~tabs ~t_est twig
  | Fallback u ->
    let t0 = now_ms () in
    let out = Eval.select_union t.engine ?context u in
    record "engine (full evaluator)" (-1) (List.length out) t0;
    out

(* ------------------------------------------------------------------ *)
(* Public entry points                                                 *)
(* ------------------------------------------------------------------ *)

let plan t ?context src = fst (plan_for t ?context (Xparser.parse_union src))

let select_union t ?context u =
  let p, _ = plan_for t ?context u in
  run_plan t ?context ~trace:None p

let query t ?context src = select_union t ?context (Xparser.parse_union src)

let cost_of = function
  | Empty _ -> 0.
  | Chain c -> c.ccost
  | TwigJoin tj -> tj.tcost
  | Fallback _ -> Float.nan

let describe p =
  match p with
  | Empty reason -> Printf.sprintf "guide-pruned: %s" reason
  | Chain ch ->
    let b = Buffer.create 64 in
    Buffer.add_string b
      (Printf.sprintf "chain-join pivot=%s" ch.csteps.(ch.pivot).ctag);
    Array.iteri
      (fun i s ->
        Buffer.add_string b
          (Printf.sprintf " %s%s"
             (match s.cedge with Child -> "/" | Descendant -> "//")
             s.ctag);
        if i = ch.pivot then Buffer.add_char b '*')
      ch.csteps;
    Buffer.contents b
  | TwigJoin { twig; _ } ->
    let rec pat (p : Twig.pattern) =
      Printf.sprintf "%s%s%s%s"
        (match p.Twig.edge with Twig.Child -> "/" | Twig.Descendant -> "//")
        p.Twig.tag
        (String.concat ""
           (List.map (fun b -> "[" ^ pat b ^ "]") p.Twig.branches))
        (match p.Twig.spine with None -> "" | Some sp -> pat sp)
    in
    "twig-join " ^ pat twig
  | Fallback u -> "engine-fallback " ^ Ast.union_to_string u

let explain t ?context src =
  let u = Xparser.parse_union src in
  let p, outcome = plan_for t ?context u in
  let trace = ref [] in
  let t0 = now_ms () in
  let out = run_plan t ?context ~trace:(Some trace) p in
  let total_ms = now_ms () -. t0 in
  let b = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "query: %s\n" src;
  pf "normalized: %s\n" (Xparser.normalize src);
  pf "strategy: %s\n" (kind_name (kind p));
  pf "plan: %s\n" (describe p);
  let ec = engine_cost_union t u in
  (match p with
  | Fallback _ | Empty _ -> pf "cost: engine=%.1f\n" ec
  | _ -> pf "cost: plan=%.1f engine=%.1f\n" (cost_of p) ec);
  pf "plan-cache: %s  guide-fingerprint: 0x%x\n"
    (cache_outcome_name outcome)
    (G.fingerprint t.guide);
  pf "%-44s %10s %10s %9s\n" "operator" "est" "actual" "ms";
  List.iter
    (fun r ->
      pf "%-44s %10s %10d %9.3f\n" r.row_op
        (if r.row_est < 0 then "-" else string_of_int r.row_est)
        r.row_actual r.row_ms)
    (List.rev !trace);
  pf "result: %d node(s) in %.3f ms\n" (List.length out) total_ms;
  Buffer.contents b

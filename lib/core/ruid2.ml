module Dom = Rxml.Dom
module U = Uid.Over_int

type id = { global : int; local : int; is_root : bool }

let pp_id ppf i =
  Format.fprintf ppf "(%d, %d, %b)" i.global i.local i.is_root

let id_to_string i = Format.asprintf "%a" pp_id i
let id_equal (a : id) (b : id) = a = b
let id_compare (a : id) (b : id) = Stdlib.compare a b

type t = {
  kappa : int;
  mutable ktable : Ktable.t;
  frame : Frame.t;
  id_of : (int, id) Hashtbl.t;  (* node serial -> identifier *)
  node_at : (int, (int, Dom.t) Hashtbl.t) Hashtbl.t;
      (* area global -> (local index -> node); index 1 maps to the area
         root, other indices to the nodes enumerated in the area. *)
  global_of_root : (int, int) Hashtbl.t;  (* area-root serial -> global *)
  root_of_global : (int, Dom.t) Hashtbl.t;
  root : Dom.t;
}

let kappa t = t.kappa
let ktable t = t.ktable
let frame t = t.frame
let root t = t.root
let area_count t = Ktable.size t.ktable
let aux_memory_words t = Ktable.memory_words t.ktable + 1

let id_of_node t n = Hashtbl.find t.id_of n.Dom.serial

(* The position at which a node is enumerated: for an area root, its leaf
   slot in the upper area (the tree root being (1, 1)); for any other node,
   its own (global, local). *)
let pos t (i : id) =
  if not i.is_root then (i.global, i.local)
  else if i.global = 1 then (1, 1)
  else
    match U.parent ~k:t.kappa i.global with
    | Some p -> (p, i.local)
    | None -> assert false

let node_at_pos t (g, l) =
  match Hashtbl.find_opt t.node_at g with
  | None -> None
  | Some inner -> Hashtbl.find_opt inner l

let node_of_id t i =
  match node_at_pos t (pos t i) with
  | Some n when id_equal (id_of_node t n) i -> Some n
  | Some _ | None -> None

let area_root_node t g = Hashtbl.find_opt t.root_of_global g
let global_of_area t n = Hashtbl.find_opt t.global_of_root n.Dom.serial

let all_nodes t = Dom.preorder t.root

let max_local_bits t =
  let bits v =
    let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
    go 0 v
  in
  Hashtbl.fold (fun _ i acc -> max acc (max (bits i.global) (bits i.local)))
    t.id_of 0

let total_label_bits t =
  let bits v =
    let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
    max 1 (go 0 v)
  in
  Hashtbl.fold
    (fun _ i acc -> acc + bits i.global + bits i.local + 1)
    t.id_of 0

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let enumerate_area frame ~k r =
  (* Locals of the nodes enumerated in the area of [r] (members), [r]
     itself taking local index 1; enumeration stops at child-area roots,
     which are leaves here. *)
  let acc = ref [] in
  let rec go local n =
    acc := (n, local) :: !acc;
    if Dom.equal n r || not (Frame.is_area_root frame n) then
      List.iteri (fun j c -> go (U.child ~k local j) c) n.Dom.children
  in
  go 1 r;
  List.rev !acc

let number_with_frame frame =
  let root = Frame.root frame in
  let kappa = max 1 (Frame.frame_fanout frame) in
  let global_of_root = Hashtbl.create 64 in
  let root_of_global = Hashtbl.create 64 in
  let rec assign_frame g r =
    Hashtbl.replace global_of_root r.Dom.serial g;
    Hashtbl.replace root_of_global g r;
    List.iteri
      (fun j c -> assign_frame (U.child ~k:kappa g j) c)
      (Frame.frame_children frame r)
  in
  assign_frame 1 root;
  let t =
    {
      kappa;
      ktable = Ktable.make [];
      frame;
      id_of = Hashtbl.create 1024;
      node_at = Hashtbl.create 64;
      global_of_root;
      root_of_global;
      root;
    }
  in
  Hashtbl.replace t.id_of root.Dom.serial { global = 1; local = 1; is_root = true };
  (* Area roots in document order: upper areas come before lower ones, so
     each area root's own identifier is known before its K row is built. *)
  let krows = ref [] in
  List.iter
    (fun r ->
      let g = Hashtbl.find global_of_root r.Dom.serial in
      let k = max 1 (Frame.area_fanout frame r) in
      let inner = Hashtbl.create 64 in
      Hashtbl.replace inner 1 r;
      List.iter
        (fun (n, local) ->
          if not (Dom.equal n r) then begin
            Hashtbl.replace inner local n;
            let i =
              if Frame.is_area_root frame n then
                { global = Hashtbl.find global_of_root n.Dom.serial;
                  local; is_root = true }
              else { global = g; local; is_root = false }
            in
            Hashtbl.replace t.id_of n.Dom.serial i
          end)
        (enumerate_area frame ~k r);
      Hashtbl.replace t.node_at g inner;
      let root_local =
        if Dom.equal r root then 1 else (id_of_node t r).local
      in
      krows := { Ktable.global = g; root_local; fanout = k } :: !krows)
    (Frame.area_roots frame);
  t.ktable <- Ktable.make !krows;
  t

let number ?max_area_size ?max_area_depth ?adjust root =
  number_with_frame (Frame.partition ?max_area_size ?max_area_depth ?adjust root)

(* ------------------------------------------------------------------ *)
(* Derivation routines — kappa and K only                              *)
(* ------------------------------------------------------------------ *)

(* Fig. 6 of the paper. *)
let rparent t (i : id) =
  if i.is_root && i.global = 1 then None
  else begin
    let g =
      if i.is_root then
        match U.parent ~k:t.kappa i.global with
        | Some p -> p
        | None -> assert false
      else i.global
    in
    let kj = Ktable.fanout t.ktable g in
    let l = ((i.local - 2) / kj) + 1 in
    if l = 1 then
      Some { global = g; local = Ktable.root_local t.ktable g; is_root = true }
    else Some { global = g; local = l; is_root = false }
  end

let rancestors t i =
  let rec go acc i =
    match rparent t i with None -> List.rev acc | Some p -> go (p :: acc) p
  in
  go [] i

let rlevel t i = List.length (rancestors t i)

let possible_children_ids t (i : id) =
  let g_area, alpha = if i.is_root then (i.global, 1) else (i.global, i.local) in
  let k = Ktable.fanout t.ktable g_area in
  let lo, _ = U.children_range ~k alpha in
  List.init k (fun j ->
      let local = lo + j in
      match
        Ktable.area_rooted_at t.ktable ~parent_global:g_area ~kappa:t.kappa ~local
      with
      | Some g' -> { global = g'; local; is_root = true }
      | None -> { global = g_area; local; is_root = false })

(* Climb the frame from [g] until the parent is [anc]; the frame child of
   [anc] on the path to [g]. *)
let frame_child_towards t ~anc g =
  let rec go g =
    match U.parent ~k:t.kappa g with
    | Some p when p = anc -> g
    | Some p -> go p
    | None -> assert false
  in
  go g

let rec relationship t a b =
  if id_equal a b then Rel.Self
  else begin
    let ga, la = pos t a and gb, lb = pos t b in
    if ga = gb then begin
      let k = Ktable.fanout t.ktable ga in
      match U.relation ~k la lb with
      | Rel.Self ->
        (* Two distinct identifiers cannot share an enumeration slot. *)
        assert false
      | r -> r
    end
    else begin
      match U.relation ~k:t.kappa ga gb with
      | Rel.Self -> assert false
      | Rel.Before -> Rel.Before
      | Rel.After -> Rel.After
      | Rel.Ancestor ->
        (* Lemma 1 composition: compare a with the joint node of the child
           area on the frame path towards b, inside area ga. *)
        let theta = frame_child_towards t ~anc:ga gb in
        let lstar = Ktable.root_local t.ktable theta in
        let k = Ktable.fanout t.ktable ga in
        (match U.relation ~k la lstar with
        | Rel.Self | Rel.Ancestor -> Rel.Ancestor
        | Rel.Before -> Rel.Before
        | Rel.After -> Rel.After
        | Rel.Descendant ->
          (* The joint is a leaf of area ga: nothing is enumerated below
             it in this area. *)
          assert false)
      | Rel.Descendant -> Rel.inverse (relationship t b a)
    end
  end

let doc_order t a b = Rel.to_order (relationship t a b)

(* ------------------------------------------------------------------ *)
(* Axes on actual nodes                                                *)
(* ------------------------------------------------------------------ *)

let parent_node t n =
  match rparent t (id_of_node t n) with
  | None -> None
  | Some p -> node_of_id t p

let ancestors t n =
  List.filter_map (node_of_id t) (rancestors t (id_of_node t n))

(* Area and parent slot in which the children of [n] are enumerated. *)
let child_context t n =
  let i = id_of_node t n in
  if i.is_root then (i.global, 1) else (i.global, i.local)

let children t n =
  let g_area, alpha = child_context t n in
  let k = Ktable.fanout t.ktable g_area in
  let lo, hi = U.children_range ~k alpha in
  match Hashtbl.find_opt t.node_at g_area with
  | None -> []
  | Some inner ->
    if Hashtbl.length inner < k then
      (* Fewer occupied slots than candidate slots: scan the area's
         occupancy table instead of probing every slot. *)
      Hashtbl.fold
        (fun l node acc -> if l >= lo && l <= hi then (l, node) :: acc else acc)
        inner []
      |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
      |> List.map snd
    else
      List.filter_map (fun j -> Hashtbl.find_opt inner (lo + j)) (List.init k Fun.id)

let descendants t n =
  let rec go n = List.concat_map (fun c -> c :: go c) (children t n) in
  go n

let siblings_side t ~before n =
  let i = id_of_node t n in
  if i.is_root && i.global = 1 then []
  else begin
    let g, l = pos t i in
    let k = Ktable.fanout t.ktable g in
    let parent_slot = ((l - 2) / k) + 1 in
    let lo, hi = U.children_range ~k parent_slot in
    let slots = List.init (hi - lo + 1) (fun j -> lo + j) in
    let keep slot = if before then slot < l else slot > l in
    List.filter_map
      (fun slot -> if keep slot then node_at_pos t (g, slot) else None)
      slots
  end

let preceding_siblings t n = siblings_side t ~before:true n
let following_siblings t n = siblings_side t ~before:false n

(* Nodes enumerated in area [g]: the area root belongs to the upper area's
   set, except the tree root which is enumerated in its own area. *)
let set_of_area t g =
  let r = Hashtbl.find t.root_of_global g in
  let members = Frame.area_members t.frame r in
  if g = 1 then members else List.tl members

(* Lemma 3 driven sweep: whole areas are classified by their frame
   relation to the context node's area; only the context area and its
   frame ancestors need per-node checks. *)
let side_axis t ~(want : Rel.t) n =
  let a_id = id_of_node t n in
  let ga, _ = pos t a_id in
  let out = ref [] in
  let add x = out := x :: !out in
  Hashtbl.iter
    (fun g r ->
      match U.relation ~k:t.kappa g ga with
      | Rel.Before -> if want = Rel.Before then List.iter add (set_of_area t g)
      | Rel.After -> if want = Rel.After then List.iter add (set_of_area t g)
      | Rel.Self | Rel.Ancestor ->
        List.iter
          (fun x ->
            if relationship t (id_of_node t x) a_id = want then add x)
          (set_of_area t g)
      | Rel.Descendant ->
        if relationship t (id_of_node t r) a_id = want then
          List.iter add (set_of_area t g))
    t.root_of_global;
  List.sort (fun x y -> doc_order t (id_of_node t x) (id_of_node t y)) !out

let preceding t n = side_axis t ~want:Rel.Before n
let following t n = side_axis t ~want:Rel.After n

(* ------------------------------------------------------------------ *)
(* Structural update                                                   *)
(* ------------------------------------------------------------------ *)

(* Re-enumerate the single area rooted at [r] with the fan-out currently
   recorded in K, refresh the identifier maps and the K rows of child
   areas whose joint index moved; count changed identifiers of
   pre-existing nodes. *)
let renumber_area t r =
  let g = Hashtbl.find t.global_of_root r.Dom.serial in
  let k = Ktable.fanout t.ktable g in
  let members = enumerate_area t.frame ~k r in
  let inner = Hashtbl.create (List.length members * 2) in
  Hashtbl.replace inner 1 r;
  let changed = ref 0 in
  List.iter
    (fun (n, local) ->
      if not (Dom.equal n r) then begin
        Hashtbl.replace inner local n;
        let i =
          if Frame.is_area_root t.frame n then
            { global = Hashtbl.find t.global_of_root n.Dom.serial;
              local; is_root = true }
          else { global = g; local; is_root = false }
        in
        (match Hashtbl.find_opt t.id_of n.Dom.serial with
        | Some old when id_equal old i -> ()
        | Some old ->
          incr changed;
          if old.is_root then begin
            (* The joint moved: record the new leaf index in K; the child
               area's own nodes keep their identifiers. *)
            let row = Option.get (Ktable.find t.ktable i.global) in
            t.ktable <-
              Ktable.with_row t.ktable { row with Ktable.root_local = local }
          end
        | None -> ());
        Hashtbl.replace t.id_of n.Dom.serial i
      end)
    members;
  Hashtbl.replace t.node_at g inner;
  !changed

let insert_node ?(slack = 0) t ~parent ~pos node =
  if node.Dom.children <> [] then
    invalid_arg "Ruid2.insert_node: only leaf insertion is supported";
  (match Hashtbl.find_opt t.id_of parent.Dom.serial with
  | Some _ -> ()
  | None -> invalid_arg "Ruid2.insert_node: parent not in numbered tree");
  Dom.insert_child parent ~pos node;
  let r = Frame.own_area_root t.frame parent in
  let g = Hashtbl.find t.global_of_root r.Dom.serial in
  let row = Option.get (Ktable.find t.ktable g) in
  let needed = Dom.degree parent in
  if needed > row.Ktable.fanout then
    t.ktable <-
      Ktable.with_row t.ktable { row with Ktable.fanout = needed + slack };
  renumber_area t r

let delete_subtree t node =
  if Dom.equal node t.root then
    invalid_arg "Ruid2.delete_subtree: cannot delete the tree root";
  let parent =
    match node.Dom.parent with
    | Some p -> p
    | None -> invalid_arg "Ruid2.delete_subtree: detached node"
  in
  let r = Frame.own_area_root t.frame parent in
  List.iter
    (fun x ->
      Hashtbl.remove t.id_of x.Dom.serial;
      if Frame.is_area_root t.frame x then begin
        let gx = Hashtbl.find t.global_of_root x.Dom.serial in
        t.ktable <- Ktable.without t.ktable gx;
        Hashtbl.remove t.root_of_global gx;
        Hashtbl.remove t.global_of_root x.Dom.serial;
        Hashtbl.remove t.node_at gx;
        Frame.uncut t.frame x
      end)
    (Dom.preorder node);
  Dom.remove_child parent node;
  renumber_area t r

(* ------------------------------------------------------------------ *)
(* Consistency checking                                                *)
(* ------------------------------------------------------------------ *)

let check_consistency t =
  let fail fmt = Format.kasprintf failwith fmt in
  Frame.check_invariants t.frame;
  let nodes = all_nodes t in
  if Hashtbl.length t.id_of <> List.length nodes then
    fail "id map has %d entries for %d nodes" (Hashtbl.length t.id_of)
      (List.length nodes);
  let seen = Hashtbl.create 256 in
  List.iter
    (fun n ->
      let i =
        match Hashtbl.find_opt t.id_of n.Dom.serial with
        | Some i -> i
        | None -> fail "node %d has no identifier" n.Dom.serial
      in
      if Hashtbl.mem seen i then fail "duplicate identifier %s" (id_to_string i);
      Hashtbl.replace seen i ();
      (match node_of_id t i with
      | Some m when Dom.equal m n -> ()
      | _ -> fail "identifier %s does not resolve back" (id_to_string i));
      (* rparent must agree with the DOM; the numbered root may carry a
         parent outside the numbered tree (e.g. the #document node). *)
      let dom_parent = if Dom.equal n t.root then None else n.Dom.parent in
      match (rparent t i, dom_parent) with
      | None, None -> ()
      | Some p, Some dp ->
        let expected = id_of_node t dp in
        if not (id_equal p expected) then
          fail "rparent %s = %s but DOM parent is %s" (id_to_string i)
            (id_to_string p) (id_to_string expected)
      | Some _, None -> fail "rparent found a parent for the root"
      | None, Some _ -> fail "rparent lost the parent of %s" (id_to_string i))
    nodes

let enumeration_area t i = fst (pos t i)

(* Deep invariant checker, used as the recovery postcondition: everything
   check_consistency verifies, plus K-table/area agreement, fan-out
   adequacy, local-index slot chains, and the document order of the
   (global, local) enumeration keys. *)
let check t =
  let fail fmt = Format.kasprintf failwith fmt in
  check_consistency t;
  (* K rows <-> areas, and each row's fields against the area root. *)
  let rows = Ktable.rows t.ktable in
  if List.length rows <> Hashtbl.length t.root_of_global then
    fail "K has %d rows for %d area roots" (List.length rows)
      (Hashtbl.length t.root_of_global);
  List.iter
    (fun row ->
      if row.Ktable.fanout < 1 then
        fail "area %d has fan-out %d < 1" row.Ktable.global row.Ktable.fanout;
      match Hashtbl.find_opt t.root_of_global row.Ktable.global with
      | None -> fail "K row %d has no area root node" row.Ktable.global
      | Some r ->
        let ri = id_of_node t r in
        if not ri.is_root then
          fail "area root of %d carries a non-root identifier %s"
            row.Ktable.global (id_to_string ri);
        if ri.global <> row.Ktable.global then
          fail "area root of %d carries global %d" row.Ktable.global ri.global;
        let leaf_index = if row.Ktable.global = 1 then 1 else ri.local in
        if leaf_index <> row.Ktable.root_local then
          fail "K row %d records root_local %d but the root's leaf index is %d"
            row.Ktable.global row.Ktable.root_local leaf_index)
    rows;
  (* Occupancy tables: only known areas, locals in range, and every
     occupied slot reachable from the area root through occupied parent
     slots (the chain rparent will walk). *)
  Hashtbl.iter
    (fun g inner ->
      if not (Ktable.mem t.ktable g) then
        fail "area %d is occupied but has no K row" g;
      let k = Ktable.fanout t.ktable g in
      Hashtbl.iter
        (fun l _node ->
          if l < 1 then fail "local index %d out of range in area %d" l g;
          if l >= 2 then begin
            let pslot = ((l - 2) / k) + 1 in
            if not (Hashtbl.mem inner pslot) then
              fail "slot %d of area %d is occupied but parent slot %d is empty"
                l g pslot
          end)
        inner)
    t.node_at;
  (* Fan-out adequacy: no node's degree exceeds the fan-out of the area in
     which its children are enumerated. *)
  List.iter
    (fun n ->
      let g, _ = child_context t n in
      let k = Ktable.fanout t.ktable g in
      if Dom.degree n > k then
        fail "node %s has %d children but area %d enumerates with fan-out %d"
          (id_to_string (id_of_node t n))
          (Dom.degree n) g k)
    (all_nodes t);
  (* Document order of the (global, local) keys: identifier comparison must
     rank the nodes exactly as DOM preorder does. *)
  let rec ordered = function
    | a :: (b :: _ as rest) ->
      let ia = id_of_node t a and ib = id_of_node t b in
      if doc_order t ia ib >= 0 then
        fail "identifiers %s and %s are out of document order"
          (id_to_string ia) (id_to_string ib);
      ordered rest
    | _ -> ()
  in
  ordered (all_nodes t)

(* Independent structural copy: clone the DOM, then transport every table
   onto the clone through the old-serial -> new-node map built by walking
   both trees in lockstep (Dom.clone preserves child order, so the
   traversals are isomorphic by construction).  The K table is a persistent
   value and is shared; everything mutable is private to the copy.  This is
   O(nodes) of pointer work — no serialization, no re-enumeration, no
   consistency sweep — which is what makes per-batch snapshot publication
   cheap (the server's incremental publish path). *)
let clone t =
  let root' = Dom.clone t.root in
  let map = Hashtbl.create (max 16 (Hashtbl.length t.id_of * 2)) in
  let rec walk a b =
    Hashtbl.replace map a.Dom.serial b;
    List.iter2 walk a.Dom.children b.Dom.children
  in
  walk t.root root';
  let node serial = Hashtbl.find map serial in
  let id_of = Hashtbl.create (max 16 (Hashtbl.length t.id_of * 2)) in
  Hashtbl.iter
    (fun serial i -> Hashtbl.replace id_of (node serial).Dom.serial i)
    t.id_of;
  let node_at = Hashtbl.create (max 16 (Hashtbl.length t.node_at * 2)) in
  Hashtbl.iter
    (fun g inner ->
      let inner' = Hashtbl.create (max 8 (Hashtbl.length inner * 2)) in
      Hashtbl.iter
        (fun l n -> Hashtbl.replace inner' l (node n.Dom.serial))
        inner;
      Hashtbl.replace node_at g inner')
    t.node_at;
  let global_of_root =
    Hashtbl.create (max 16 (Hashtbl.length t.global_of_root * 2))
  in
  Hashtbl.iter
    (fun serial g -> Hashtbl.replace global_of_root (node serial).Dom.serial g)
    t.global_of_root;
  let root_of_global =
    Hashtbl.create (max 16 (Hashtbl.length t.root_of_global * 2))
  in
  Hashtbl.iter
    (fun g n -> Hashtbl.replace root_of_global g (node n.Dom.serial))
    t.root_of_global;
  {
    kappa = t.kappa;
    ktable = t.ktable;
    frame = Frame.remap t.frame ~root:root' ~node;
    id_of;
    node_at;
    global_of_root;
    root_of_global;
    root = root';
  }

let restore ~kappa ~ktable ~ids root =
  let nodes = Dom.preorder root in
  if List.length nodes <> List.length ids then
    invalid_arg "Ruid2.restore: identifier count does not match the tree";
  (* The cut set is exactly the nodes carrying root-form identifiers. *)
  let cut_nodes =
    List.filter_map
      (fun (n, i) -> if i.is_root && not (Dom.equal n root) then Some n else None)
      (List.combine nodes ids)
  in
  let frame = Frame.of_cut_set root cut_nodes in
  let t =
    {
      kappa;
      ktable;
      frame;
      id_of = Hashtbl.create (List.length nodes * 2);
      node_at = Hashtbl.create 64;
      global_of_root = Hashtbl.create 64;
      root_of_global = Hashtbl.create 64;
      root;
    }
  in
  List.iter2
    (fun n i ->
      Hashtbl.replace t.id_of n.Dom.serial i;
      if i.is_root then begin
        Hashtbl.replace t.global_of_root n.Dom.serial i.global;
        Hashtbl.replace t.root_of_global i.global n
      end)
    nodes ids;
  (* Rebuild the per-area occupancy tables from enumeration positions. *)
  List.iter2
    (fun n i ->
      let g, l = pos t i in
      let inner =
        match Hashtbl.find_opt t.node_at g with
        | Some inner -> inner
        | None ->
          let inner = Hashtbl.create 32 in
          Hashtbl.replace t.node_at g inner;
          inner
      in
      Hashtbl.replace inner l n;
      if i.is_root then begin
        let own =
          match Hashtbl.find_opt t.node_at i.global with
          | Some inner -> inner
          | None ->
            let inner = Hashtbl.create 32 in
            Hashtbl.replace t.node_at i.global inner;
            inner
        in
        Hashtbl.replace own 1 n
      end)
    nodes ids;
  (* A corrupted identifier stream can surface as a consistency failure or
     as a missing K row / unresolvable position inside the checker. *)
  (try check_consistency t with
  | Failure msg -> invalid_arg ("Ruid2.restore: " ^ msg)
  | Not_found -> invalid_arg "Ruid2.restore: identifier references a missing area"
  | Invalid_argument msg -> invalid_arg ("Ruid2.restore: " ^ msg));
  t

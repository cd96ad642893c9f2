module Dom = Rxml.Dom

type t = {
  root : Dom.t;
  cut : (int, unit) Hashtbl.t;  (* serials of area roots, root included *)
}

let root t = t.root
let is_area_root t n = Hashtbl.mem t.cut n.Dom.serial

let own_area_root t n =
  let rec go n = if is_area_root t n then n else
    match n.Dom.parent with
    | Some p -> go p
    | None -> failwith "Frame.own_area_root: node outside the frame's tree"
  in
  go n

let area_root_of t n =
  if Dom.equal n t.root then t.root
  else
    match n.Dom.parent with
    | Some p -> own_area_root t p
    | None -> failwith "Frame.area_root_of: detached node"

let frame_parent t n =
  match n.Dom.parent with
  | None -> None
  | Some p -> Some (own_area_root t p)

let frame_children t r =
  (* Area roots whose nearest strict-ancestor area root is [r]: collect cut
     nodes below [r], not descending past them. *)
  let acc = ref [] in
  let rec go n =
    List.iter
      (fun c ->
        if is_area_root t c then acc := c :: !acc else go c)
      n.Dom.children
  in
  go r;
  List.rev !acc

let area_roots t =
  List.filter (is_area_root t) (Dom.preorder t.root)

let area_count t = Hashtbl.length t.cut

let area_members t r =
  let acc = ref [] in
  let rec go n =
    acc := n :: !acc;
    if Dom.equal n r || not (is_area_root t n) then
      List.iter go n.Dom.children
  in
  go r;
  List.rev !acc

let area_fanout t r =
  let best = ref 1 in
  let rec go n =
    if Dom.equal n r || not (is_area_root t n) then begin
      let d = Dom.degree n in
      if d > !best then best := d;
      List.iter go n.Dom.children
    end
  in
  go r;
  !best

let frame_fanout t =
  List.fold_left
    (fun acc r -> max acc (List.length (frame_children t r)))
    1 (area_roots t)

let frame_depth t =
  let rec go r = List.fold_left (fun acc c -> max acc (1 + go c)) 0 (frame_children t r) in
  go t.root

let of_cut_set root nodes =
  let cut = Hashtbl.create 64 in
  Hashtbl.replace cut root.Dom.serial ();
  List.iter
    (fun n ->
      if not (Dom.equal n root || Dom.is_ancestor ~anc:root ~desc:n) then
        invalid_arg "Frame.of_cut_set: node not in tree";
      Hashtbl.replace cut n.Dom.serial ())
    nodes;
  { root; cut }

(* Greedy top-down partition: grow the current area in document order; when
   it would exceed the size budget — or a path would exceed the depth
   budget — the next child starts a new area (and is still counted as a
   leaf of the current one, per Definition 2). *)
let greedy_cut ~max_area_size ~max_area_depth root =
  let cut = Hashtbl.create 64 in
  Hashtbl.replace cut root.Dom.serial ();
  let rec fill_area area_root =
    (* budget counts enumerated nodes: the area root plus members. *)
    let budget = ref (max_area_size - 1) in
    let next_areas = ref [] in
    let rec go depth n =
      List.iter
        (fun c ->
          decr budget;
          if !budget >= 0 && depth < max_area_depth then go (depth + 1) c
          else begin
            (* [c] still consumed a slot as a leaf of this area, but its
               own children start a fresh area rooted at [c]. *)
            Hashtbl.replace cut c.Dom.serial ();
            next_areas := c :: !next_areas
          end)
        n.Dom.children
    in
    go 1 area_root;
    List.iter fill_area (List.rev !next_areas)
  in
  fill_area root;
  { root; cut }

(* One area root's frame children with their count, kept alongside so no
   step re-measures a list. *)
type frame_kids = { mutable members : Dom.t list; mutable count : int }

let adjust_fanout t =
  let tree_fanout =
    Dom.fold_preorder (fun acc n -> max acc (Dom.degree n)) 1 t.root
  in
  (* One pass computes every area root's frame children. *)
  let children : (int, Dom.t * frame_kids) Hashtbl.t = Hashtbl.create 64 in
  let rec collect area_root n =
    List.iter
      (fun c ->
        if is_area_root t c then begin
          (match Hashtbl.find_opt children area_root.Dom.serial with
          | Some (_, k) ->
            k.members <- c :: k.members;
            k.count <- k.count + 1
          | None ->
            Hashtbl.replace children area_root.Dom.serial
              (area_root, { members = [ c ]; count = 1 }));
          collect c c
        end
        else collect area_root c)
      n.Dom.children
  in
  collect t.root t.root;
  (* Path from a frame child up to (excluding) its frame parent — bounded
     by the area depth. *)
  let path_to_parent ~stop n =
    let rec go acc n =
      match n.Dom.parent with
      | Some p when Dom.equal p stop -> acc
      | Some p -> go (p :: acc) p
      | None -> assert false
    in
    go [] n
  in
  (* Bring [u]'s frame fan-out down to the tree's.  Promotions on [u] only
     replace one branch's group by its LCA and never touch another branch
     or another area root's children, so the groups are formed and ranked
     once, and the best ones are promoted in rank order: the same cut as
     re-ranking after every promotion, in one pass over [u]'s children. *)
  let rec settle u k =
    (* Group u's frame children by the T-child of u they sit under. *)
    let groups = Hashtbl.create 8 in
    List.iter
      (fun fc ->
        let branch =
          match path_to_parent ~stop:u fc with
          | b :: _ -> b
          | [] -> fc (* fc is a direct T-child of u *)
        in
        match Hashtbl.find_opt groups branch.Dom.serial with
        | Some (_, g) ->
          g.members <- fc :: g.members;
          g.count <- g.count + 1
        | None ->
          Hashtbl.replace groups branch.Dom.serial
            (branch, { members = [ fc ]; count = 1 }))
      k.members;
    (* Largest group first; ties break on the branch's position among u's
       children.  Never on hash order of serials — that would make the cut
       depend on node-allocation history, so two parses of the same bytes
       could partition (and number) differently. *)
    let position = Hashtbl.create 64 in
    List.iteri (fun i c -> Hashtbl.replace position c.Dom.serial i) u.Dom.children;
    let ranked =
      Hashtbl.fold
        (fun _ (b, g) acc ->
          if g.count >= 2 then (Hashtbl.find position b.Dom.serial, g) :: acc
          else acc)
        groups []
      |> List.sort (fun (i1, g1) (i2, g2) ->
             match compare g2.count g1.count with 0 -> compare i1 i2 | c -> c)
    in
    let rec promote count = function
      | _ when count <= tree_fanout -> ()
      | [] ->
        (* Impossible while the fan-out exceeds the tree's: some branch
           must hold two frame children. *)
        assert false
      | (_, g) :: rest ->
        (* Promote the LCA (within u's area) of the group; the group moves
           under it. *)
        let paths =
          List.map (fun fc -> path_to_parent ~stop:u fc @ [ fc ]) g.members
        in
        let rec common prefix ps =
          let heads = List.map (function x :: _ -> Some x | [] -> None) ps in
          match heads with
          | Some h :: rest
            when List.for_all
                   (function Some x -> Dom.equal x h | None -> false)
                   rest ->
            common (h :: prefix)
              (List.map (function _ :: tl -> tl | [] -> []) ps)
          | _ -> prefix
        in
        let lca =
          match common [] paths with
          | lca :: _ -> lca
          | [] -> assert false
        in
        assert (not (Hashtbl.mem t.cut lca.Dom.serial));
        Hashtbl.replace t.cut lca.Dom.serial ();
        if g.count > tree_fanout then settle lca g;
        promote (count - g.count + 1) rest
    in
    promote k.count ranked
  in
  Hashtbl.fold
    (fun _ (u, k) acc -> if k.count > tree_fanout then (u, k) :: acc else acc)
    children []
  |> List.iter (fun (u, k) -> settle u k)

let uncut t n =
  if Dom.equal n t.root then invalid_arg "Frame.uncut: tree root";
  Hashtbl.remove t.cut n.Dom.serial

(* Transport the cut set onto a structurally identical tree: [node] maps an
   old serial to the corresponding node of the new tree.  O(areas), no
   ancestry validation — the caller guarantees the trees are isomorphic
   (this is the cheap path behind Ruid2.clone; of_cut_set re-validates). *)
let remap t ~root ~node =
  let cut = Hashtbl.create (max 16 (Hashtbl.length t.cut * 2)) in
  Hashtbl.iter
    (fun serial () -> Hashtbl.replace cut (node serial).Dom.serial ())
    t.cut;
  { root; cut }

let bits v =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let default_area_size = 64

(* Keep k^depth comfortably inside a native integer: local indices stay
   under ~48 bits, leaving headroom for fan-out growth under updates. *)
let default_area_depth ~max_fanout = max 4 (48 / bits (max_fanout + 1))

let partition ?(max_area_size = default_area_size) ?max_area_depth
    ?(adjust = true) root =
  if max_area_size < 2 then invalid_arg "Frame.partition: max_area_size < 2";
  let max_area_depth =
    match max_area_depth with
    | Some d ->
      if d < 1 then invalid_arg "Frame.partition: max_area_depth < 1";
      d
    | None ->
      let max_fanout =
        Dom.fold_preorder (fun acc n -> max acc (Dom.degree n)) 1 root
      in
      default_area_depth ~max_fanout
  in
  let t = greedy_cut ~max_area_size ~max_area_depth root in
  if adjust then adjust_fanout t;
  t

(* The greedy cut as an online algorithm over a preorder enter/leave walk:
   the decision for a node depends only on the budget its enumerating area
   has already spent on earlier nodes (all before it in document order) and
   its depth inside that area, so a stack of open areas suffices — the cut
   set is computed during a single streaming pass, with no tree in hand.
   Produces exactly the cut of [greedy_cut] (tested equivalent). *)
module Cut_builder = struct
  type area = { mutable budget : int }

  type builder = {
    max_area_size : int;
    max_area_depth : int;
    cut : (int, unit) Hashtbl.t;
    (* per open node: the area enumerating its children and the greedy
       depth those children are checked at *)
    mutable stack : (area * int) list;
    mutable root_serial : int;
  }

  let create ?(max_area_size = default_area_size) ~max_area_depth () =
    if max_area_size < 2 then
      invalid_arg "Frame.Cut_builder.create: max_area_size < 2";
    if max_area_depth < 1 then
      invalid_arg "Frame.Cut_builder.create: max_area_depth < 1";
    {
      max_area_size;
      max_area_depth;
      cut = Hashtbl.create 64;
      stack = [];
      root_serial = -1;
    }

  let enter b ~serial =
    match b.stack with
    | [] ->
      (* tree root: always an area root, children checked at greedy depth 1 *)
      Hashtbl.replace b.cut serial ();
      b.root_serial <- serial;
      b.stack <- ({ budget = b.max_area_size - 1 }, 1) :: b.stack;
      true
    | (area, gdepth) :: _ ->
      area.budget <- area.budget - 1;
      if area.budget >= 0 && gdepth < b.max_area_depth then begin
        b.stack <- (area, gdepth + 1) :: b.stack;
        false
      end
      else begin
        (* the node still consumed a slot as a leaf of the upper area, but
           its own children start a fresh area rooted here *)
        Hashtbl.replace b.cut serial ();
        b.stack <- ({ budget = b.max_area_size - 1 }, 1) :: b.stack;
        true
      end

  let leave b =
    match b.stack with
    | _ :: rest -> b.stack <- rest
    | [] -> invalid_arg "Frame.Cut_builder.leave: empty stack"

  let finish b ~root =
    if b.stack <> [] then
      invalid_arg "Frame.Cut_builder.finish: unbalanced enter/leave";
    if root.Dom.serial <> b.root_serial then
      invalid_arg "Frame.Cut_builder.finish: root is not the first entered node";
    { root; cut = b.cut }
end

let check_invariants t =
  let fail fmt = Format.kasprintf failwith fmt in
  if not (is_area_root t t.root) then fail "tree root is not an area root";
  (* Every node is enumerated in exactly one area; collect membership. *)
  let seen = Hashtbl.create 256 in
  List.iter
    (fun r ->
      let members = area_members t r in
      (match members with
      | m :: _ when Dom.equal m r -> ()
      | _ -> fail "area members must start with the area root");
      List.iter
        (fun m ->
          if not (Dom.equal m r) then begin
            if Hashtbl.mem seen m.Dom.serial then
              fail "node %d enumerated in two areas" m.Dom.serial;
            Hashtbl.replace seen m.Dom.serial r.Dom.serial
          end;
          (* Induced subtree: every member's parent is in the same area
             (or the member is the area root). *)
          if not (Dom.equal m r) then
            match m.Dom.parent with
            | None -> fail "non-root member without parent"
            | Some p ->
              if not (Dom.equal p r || List.exists (Dom.equal p) members) then
                fail "area is not an induced subtree")
        members)
    (area_roots t);
  (* Coverage: every node except the tree root appears exactly once. *)
  Dom.iter_preorder
    (fun n ->
      if not (Dom.equal n t.root) && not (Hashtbl.mem seen n.Dom.serial) then
        fail "node %d not enumerated in any area" n.Dom.serial)
    t.root

let check = check_invariants

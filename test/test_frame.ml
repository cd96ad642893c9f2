module Dom = Rxml.Dom
module Frame = Ruid.Frame
module Shape = Rworkload.Shape
open Util

let uniform lo hi = Shape.Uniform { fanout_lo = lo; fanout_hi = hi }

let test_single_area () =
  let root = t "a" [ t "b" []; t "c" [ t "d" [] ] ] in
  let f = Frame.partition ~max_area_size:100 root in
  Alcotest.(check int) "one area" 1 (Frame.area_count f);
  Alcotest.(check bool) "root is area root" true (Frame.is_area_root f root);
  Alcotest.(check int) "members = all nodes" 4
    (List.length (Frame.area_members f root));
  Frame.check_invariants f

let test_explicit_cut () =
  (* <a><b><c/><d/></b><e/></a> cut at b. *)
  let c = t "c" [] and d = t "d" [] in
  let b = t "b" [ ] in
  Dom.append_child b c;
  Dom.append_child b d;
  let e = t "e" [] in
  let a = t "a" [] in
  Dom.append_child a b;
  Dom.append_child a e;
  let f = Frame.of_cut_set a [ b ] in
  Alcotest.(check int) "two areas" 2 (Frame.area_count f);
  check_node_list "area of a: a, b (joint leaf), e" [ a; b; e ]
    (Frame.area_members f a);
  check_node_list "area of b: b, c, d" [ b; c; d ] (Frame.area_members f b);
  check_node_list "frame children of a" [ b ] (Frame.frame_children f a);
  Alcotest.(check bool) "frame parent of b is a" true
    (match Frame.frame_parent f b with Some p -> Dom.equal p a | None -> false);
  Alcotest.(check int) "area fanout of a counts only internal nodes" 2
    (Frame.area_fanout f a);
  Alcotest.(check int) "area fanout of b" 2 (Frame.area_fanout f b);
  check_node_list "c enumerated in area b" [ b ] [ Frame.area_root_of f c ];
  check_node_list "b enumerated in area a" [ a ] [ Frame.area_root_of f b ];
  check_node_list "own area of b is b" [ b ] [ Frame.own_area_root f b ];
  Frame.check_invariants f

let test_partition_respects_budget () =
  let root = Shape.generate ~seed:42 ~target:500 (uniform 1 4) in
  let f = Frame.partition ~max_area_size:32 root in
  Frame.check_invariants f;
  Alcotest.(check bool) "several areas" true (Frame.area_count f > 4);
  List.iter
    (fun r ->
      let size = List.length (Frame.area_members f r) in
      (* The greedy cut may overshoot by the trailing joint leaves of one
         node's children, never by more than the tree's maximal fan-out. *)
      Alcotest.(check bool)
        (Printf.sprintf "area size %d within slack" size)
        true
        (size <= 32 + Rxml.Stats.(compute root).max_fanout))
    (Frame.area_roots f)

let test_every_node_covered () =
  let root = Shape.generate ~seed:7 ~target:300 (uniform 0 5) in
  let f = Frame.partition ~max_area_size:20 root in
  Frame.check_invariants f;
  (* Sum of (members - 1) over all areas + 1 (tree root) = node count. *)
  let total =
    List.fold_left
      (fun acc r -> acc + List.length (Frame.area_members f r) - 1)
      1 (Frame.area_roots f)
  in
  Alcotest.(check int) "coverage" (Dom.size root) total

let test_adjust_fanout () =
  (* A tree with max fan-out 2 whose natural greedy partition would give
     the frame a larger fan-out; Section 2.3 promotes branching nodes. *)
  let root = Shape.generate ~seed:11 ~target:800 (uniform 1 2) in
  let tree_fanout = Rxml.Stats.(compute root).max_fanout in
  let f = Frame.partition ~max_area_size:8 ~adjust:true root in
  Frame.check_invariants f;
  Alcotest.(check bool)
    (Printf.sprintf "frame fanout %d <= tree fanout %d" (Frame.frame_fanout f)
       tree_fanout)
    true
    (Frame.frame_fanout f <= tree_fanout)

let test_adjust_changes_something () =
  (* Without adjustment some seed must exceed the tree fan-out; otherwise
     the ablation experiment is vacuous.  Search a few seeds. *)
  let exists_violation =
    List.exists
      (fun seed ->
        let root = Shape.generate ~seed ~target:800 (uniform 1 2) in
        let tree_fanout = Rxml.Stats.(compute root).max_fanout in
        let f = Frame.partition ~max_area_size:8 ~adjust:false root in
        Frame.frame_fanout f > tree_fanout)
      [ 1; 2; 3; 11; 42; 99 ]
  in
  Alcotest.(check bool) "unadjusted partitions can exceed tree fan-out" true
    exists_violation

let test_frame_depth () =
  let root = Shape.chain ~depth:20 () in
  let f = Frame.partition ~max_area_size:5 root in
  Alcotest.(check bool) "chain partition has depth > 1" true (Frame.frame_depth f >= 2);
  Frame.check_invariants f

let prop_invariants_random =
  Util.qtest ~count:60 "partition invariants on random trees"
    QCheck.(pair (int_range 2 300) (int_range 2 40))
    (fun (n, area) ->
      let root = Shape.generate ~seed:(n + (area * 1000)) ~target:n (uniform 0 6) in
      let f = Frame.partition ~max_area_size:area root in
      Frame.check_invariants f;
      true)

let prop_area_root_of_is_ancestor =
  Util.qtest ~count:60 "area_root_of returns an ancestor-or-self"
    QCheck.(int_range 2 200)
    (fun n ->
      let root = Shape.generate ~seed:(n * 3) ~target:n (uniform 1 4) in
      let f = Frame.partition ~max_area_size:10 root in
      List.for_all
        (fun x ->
          let r = Frame.area_root_of f x in
          Dom.equal r x || Dom.is_ancestor ~anc:r ~desc:x)
        (Dom.preorder root))

(* Complexity guard for the Section 2.3 adjustment.  A wide root whose
   first records overflow the document node's area (the DBLP shape) makes
   the adjustment promote the root element over ~all its children; a
   removal costing |group| per member would make that quadratic.  The
   per-node cost at 20k records must stay within 3x of 5k records'. *)
let wide_doc records =
  let b = Buffer.create (records * 24) in
  Buffer.add_string b "<dblp>";
  for i = 1 to records do
    Buffer.add_string b (Printf.sprintf "<r><a>%d</a><b/></r>" i)
  done;
  Buffer.add_string b "</dblp>";
  Rxml.Parser.parse_string (Buffer.contents b)

let adjust_us_per_node records =
  let doc = wide_doc records in
  let best = ref infinity in
  for _ = 1 to 3 do
    let f = Frame.partition ~adjust:false doc in
    let areas = Frame.area_count f in
    let t0 = Unix.gettimeofday () in
    Frame.adjust_fanout f;
    best := Float.min !best (Unix.gettimeofday () -. t0);
    if Frame.area_count f <= areas then
      Alcotest.failf "%d records: the adjustment promoted nothing" records
  done;
  !best *. 1e6 /. float_of_int (Dom.size doc)

let test_adjust_linear_on_wide_root () =
  let small = adjust_us_per_node 5_000 in
  let large = adjust_us_per_node 20_000 in
  if large > 3. *. small then
    Alcotest.failf
      "adjust_fanout is superlinear: %.3f us/node at 20k records vs %.3f at 5k"
      large small

let suite =
  [
    Alcotest.test_case "single area" `Quick test_single_area;
    Alcotest.test_case "explicit cut set" `Quick test_explicit_cut;
    Alcotest.test_case "budget respected" `Quick test_partition_respects_budget;
    Alcotest.test_case "full coverage" `Quick test_every_node_covered;
    Alcotest.test_case "Section 2.3 fan-out adjustment" `Quick test_adjust_fanout;
    Alcotest.test_case "adjustment is not vacuous" `Quick test_adjust_changes_something;
    Alcotest.test_case "frame depth on chains" `Quick test_frame_depth;
    prop_invariants_random;
    prop_area_root_of_is_ancestor;
    Alcotest.test_case "fan-out adjustment linear on a wide root" `Quick
      test_adjust_linear_on_wide_root;
  ]

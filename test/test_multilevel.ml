(* The multilevel form (Section 2.4, Definition 4; Example 3) as {!Mruid}
   builds it: level counting, the decomposition of the top UID when a level
   is added, identifier round trips, parents, relations and updates against
   the DOM, and the Section 3.1 capacity law. *)

module Dom = Rxml.Dom
module M = Ruid.Mruid
module B = Bignum.Bignat
module Shape = Rworkload.Shape
module Rng = Rworkload.Rng
open Util

let mid = Alcotest.testable M.pp_id M.id_equal

(* [top_size:1] keeps partitioning until [levels] caps the recursion, so a
   document with enough areas gets exactly [levels] levels. *)
let build ?(levels = 3) ?(area = 8) root =
  M.build ~max_levels:levels ~max_area_size:area ~top_size:1 root

let uniform ~seed ~target lo hi =
  Shape.generate ~seed ~target (Shape.Uniform { fanout_lo = lo; fanout_hi = hi })

let test_levels_counting () =
  (* A tiny tree is a single area: the original UID alone numbers it. *)
  let small = t "a" [ t "b" [] ] in
  Alcotest.(check int) "small doc is 1-level" 1 (M.levels (build small));
  let big = uniform ~seed:1 ~target:600 1 4 in
  Alcotest.(check int) "2-level when capped at 2" 2
    (M.levels (build ~levels:2 ~area:6 big));
  Alcotest.(check int) "large doc reaches 3 levels" 3
    (M.levels (build ~levels:3 ~area:6 big))

let test_component_count_matches_levels () =
  let root = uniform ~seed:4 ~target:500 1 4 in
  let m = build ~levels:4 ~area:5 root in
  let l = M.levels m in
  Alcotest.(check int) "4 levels" 4 l;
  Dom.iter_preorder
    (fun n ->
      let i = M.id_of_node m n in
      Alcotest.(check int) "one component per level below the top" (l - 1)
        (List.length i.M.comps))
    root

(* Definition 4 / Example 3: adding a level decomposes the top UID of the
   2-level identifier into a 3-level prefix and keeps the document-level
   (last) component; top UIDs and prefixes correspond one to one. *)
let test_decomposition_consistency () =
  let root = uniform ~seed:9 ~target:400 1 3 in
  let two = build ~levels:2 root and three = build ~levels:3 root in
  let prefix = Hashtbl.create 64 in
  Dom.iter_preorder
    (fun n ->
      match (M.id_of_node two n, M.id_of_node three n) with
      | { M.top; comps = [ base2 ] }, { M.top = top3; comps = [ upper; base3 ] } -> (
        Alcotest.(check bool) "base component preserved" true (base2 = base3);
        match Hashtbl.find_opt prefix top with
        | Some p -> Alcotest.(check bool) "one prefix per top UID" true (p = (top3, upper))
        | None -> Hashtbl.replace prefix top (top3, upper))
      | _ -> Alcotest.fail "expected a 2-level and a 3-level identifier")
    root;
  let prefixes = Hashtbl.fold (fun _ p acc -> p :: acc) prefix [] in
  Alcotest.(check int) "one top UID per prefix" (Hashtbl.length prefix)
    (List.length (List.sort_uniq compare prefixes))

let test_round_trip () =
  let root = uniform ~seed:21 ~target:700 0 5 in
  let m = build ~levels:3 ~area:7 root in
  M.check_consistency m;
  Dom.iter_preorder
    (fun n ->
      match M.node_of_id m (M.id_of_node m n) with
      | Some x -> Alcotest.(check int) "round trip" n.Dom.serial x.Dom.serial
      | None -> Alcotest.fail "identifier did not resolve")
    root

let test_parent () =
  let root = uniform ~seed:33 ~target:300 1 4 in
  let m = build ~levels:3 ~area:6 root in
  Dom.iter_preorder
    (fun n ->
      let i = M.id_of_node m n in
      match (M.rparent m i, n.Dom.parent) with
      | None, None -> ()
      | Some p, Some dp -> Alcotest.check mid "parent id" (M.id_of_node m dp) p
      | Some _, None -> Alcotest.fail "root got a parent"
      | None, Some _ -> Alcotest.fail "lost a parent")
    root

let test_relationship_oracle () =
  let root = uniform ~seed:41 ~target:250 0 4 in
  let m = build ~levels:3 ~area:5 root in
  let rng = Rng.create 12 in
  for _ = 1 to 150 do
    let a = Shape.random_node rng root in
    let b = Shape.random_node rng root in
    Alcotest.check rel "relationship"
      (dom_relation root a b)
      (M.relationship m (M.id_of_node m a) (M.id_of_node m b))
  done

let test_updates_through_multilevel () =
  let root = uniform ~seed:55 ~target:200 0 4 in
  let m = build ~levels:3 ~area:8 root in
  let rng = Rng.create 3 in
  for _ = 1 to 30 do
    let parent = Shape.random_node rng root in
    let pos = Rng.int rng (Dom.degree parent + 1) in
    ignore (M.insert_node m ~parent ~pos (Dom.element "ins"))
  done;
  M.check_consistency m;
  (* identifiers still resolve and relations hold *)
  for _ = 1 to 60 do
    let a = Shape.random_node rng root in
    let b = Shape.random_node rng root in
    Alcotest.check rel "post-update relationship"
      (dom_relation root a b)
      (M.relationship m (M.id_of_node m a) (M.id_of_node m b))
  done

let test_addressable () =
  Alcotest.(check string) "e^m" "1000000" (B.to_string (M.addressable ~e:100 ~levels:3));
  (* Section 3.1: with e = 2^61 per level, 2 levels cover 2^122 nodes. *)
  Alcotest.(check int) "2 levels of 61-bit UIDs" 123
    (B.bit_length (M.addressable ~e:2305843009213693952 ~levels:2))

let test_component_bits_bounded () =
  (* Multilevel keeps individual indices small even where flat UID blows
     up: a wide DBLP-like document. *)
  let root = Rworkload.Dblp.generate ~seed:2 ~publications:400 in
  let m = build ~levels:3 ~area:16 root in
  Alcotest.(check bool)
    (Printf.sprintf "component bits %d stay small" (M.max_component_bits m))
    true
    (M.max_component_bits m <= 24)

let test_pp () =
  let small = t "a" [ t "b" []; t "c" [] ] in
  Alcotest.(check string) "1-level root" "{1}"
    (M.id_to_string (M.id_of_node (build small) small));
  let big = uniform ~seed:4 ~target:500 1 4 in
  let m = build ~levels:3 ~area:5 big in
  Alcotest.(check string) "3-level root" "{1, (1, true), (1, true)}"
    (M.id_to_string (M.id_of_node m big))

let suite =
  [
    Alcotest.test_case "level counting" `Quick test_levels_counting;
    Alcotest.test_case "component count" `Quick test_component_count_matches_levels;
    Alcotest.test_case "Example 3: decomposition consistency" `Quick test_decomposition_consistency;
    Alcotest.test_case "identifier round trip" `Quick test_round_trip;
    Alcotest.test_case "parent derivation" `Quick test_parent;
    Alcotest.test_case "relationship oracle" `Quick test_relationship_oracle;
    Alcotest.test_case "updates" `Quick test_updates_through_multilevel;
    Alcotest.test_case "Section 3.1 capacity" `Quick test_addressable;
    Alcotest.test_case "component bits bounded" `Quick test_component_bits_bounded;
    Alcotest.test_case "identifier printing" `Quick test_pp;
  ]

(* Path plans: the planner's chain-join plans for child/descendant
   name-test paths (the [/a/b//c] shape), checked against the naive
   evaluator, plus the rank-sorted tag postings they are joined over. *)

module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module P = Rxpath.Planner
module DI = Rxpath.Doc_index
module Shape = Rworkload.Shape
open Util

let setup () =
  let site = Rworkload.Xmark.generate ~seed:3 ~scale:1.0 in
  let doc = Dom.document () in
  Dom.append_child doc site;
  let r2 = R2.number ~max_area_size:16 doc in
  (doc, r2, P.create r2, Rxpath.Engine_naive.create doc)

let plannable =
  [
    "/site/regions/africa/item";
    "//item/name";
    "//closed_auction//listitem";
    "/site//bidder/increase";
    "//parlist//text";
    "//open_auction/bidder";
    "/site/people/person/profile/interest";
  ]

let not_plannable =
  [
    "//item[1]/name";                (* predicate *)
    "//item/*";                      (* wildcard *)
    "//listitem/ancestor::item";     (* other axis *)
    "//title/text()";                (* text test *)
    "//person[@id='person1']";       (* predicate *)
    "..";                            (* parent *)
  ]

let is_chain q =
  snd (P.chain_of_steps (Rxpath.Xparser.parse q).Rxpath.Ast.steps)

let test_compile_recognizes () =
  List.iter (fun q -> Alcotest.(check bool) q true (is_chain q)) plannable;
  List.iter (fun q -> Alcotest.(check bool) q false (is_chain q)) not_plannable

let check_chain planner ?context q =
  match P.plan planner ?context q with
  | P.Chain _ -> ()
  | p -> Alcotest.failf "%s planned as %s" q (P.describe p)

let test_plan_matches_eval () =
  let _doc, _r2, planner, naive = setup () in
  List.iter
    (fun q ->
      check_chain planner q;
      check_node_list q (Rxpath.Eval.query naive q) (P.query planner q))
    plannable

let test_plan_with_context () =
  let doc, _r2, planner, naive = setup () in
  let site = Dom.root_element doc in
  let regions = List.find (fun n -> Dom.tag n = "regions") site.Dom.children in
  check_chain planner ~context:regions "africa/item/name";
  check_node_list "relative from context"
    (Rxpath.Eval.query naive ~context:regions "africa/item/name")
    (P.query planner ~context:regions "africa/item/name")

(* The rendering lists every step with its edge and stars the pivot. *)
let test_plan_printing () =
  let _doc, _r2, planner, _ = setup () in
  List.iter
    (fun (q, steps) ->
      let d = P.describe (P.plan planner q) in
      let unstarred = String.concat "" (String.split_on_char '*' d) in
      Alcotest.(check bool) (d ^ " is a chain listing " ^ steps) true
        (String.starts_with ~prefix:"chain-join pivot=" d
        && String.ends_with ~suffix:steps unstarred))
    [ ("//item/name", " //item /name"); ("/site//bidder", " /site //bidder") ]

let test_tag_index () =
  let doc, r2, _, _ = setup () in
  let idx = DI.build r2 in
  Alcotest.(check bool) "items indexed" true (DI.cardinality idx "item" > 0);
  Alcotest.(check int) "unknown tag" 0 (DI.cardinality idx "zzz");
  (* Postings are in document order. *)
  let items = Array.to_list (DI.postings idx "item") in
  check_node_list "document order"
    (List.filter (fun n -> Dom.tag n = "item") (Dom.preorder doc)) items;
  Alcotest.(check int) "postings cover every element"
    (List.length (List.filter Dom.is_element (Dom.preorder doc)))
    (List.fold_left (fun acc tag -> acc + DI.cardinality idx tag) 0 (DI.tags idx))

let prop_plan_equals_eval_random =
  Util.qtest ~count:25 "plans agree with the evaluator on random documents"
    QCheck.(int_range 20 200)
    (fun n ->
      let root =
        Shape.generate ~seed:(n * 7) ~tags:[| "a"; "b"; "c" |] ~target:n
          (Shape.Uniform { fanout_lo = 0; fanout_hi = 4 })
      in
      let planner = P.create (R2.number ~max_area_size:8 root) in
      let naive = Rxpath.Engine_naive.create root in
      List.for_all
        (fun q ->
          (match P.plan planner q with P.Chain _ | P.Empty _ -> true | _ -> false)
          && serials (P.query planner q) = serials (Rxpath.Eval.query naive q))
        [ "//a/b"; "//b//c"; "//a//b/c"; "//c" ])

let suite =
  [
    Alcotest.test_case "compile recognition" `Quick test_compile_recognizes;
    Alcotest.test_case "plans match the evaluator" `Quick test_plan_matches_eval;
    Alcotest.test_case "relative plans" `Quick test_plan_with_context;
    Alcotest.test_case "plan printing" `Quick test_plan_printing;
    Alcotest.test_case "tag index" `Quick test_tag_index;
    prop_plan_equals_eval_random;
  ]

(* The planner as the query path: strategy selection, agreement with the
   naive and ruid engines (including a 50-seed twig-fragment property), and
   relative queries from a context node. *)

module Dom = Rxml.Dom
module P = Rxpath.Planner
open Util

let setup () =
  let site = Rworkload.Xmark.generate ~seed:31 ~scale:0.8 in
  let doc = Dom.document () in
  Dom.append_child doc site;
  let r2 = Ruid.Ruid2.number ~max_area_size:16 doc in
  (P.create r2, Rxpath.Engine_naive.create doc)

let kind q planner = P.kind (P.plan planner q)

let test_strategy_selection () =
  let planner, _ = setup () in
  List.iter
    (fun (q, expected) ->
      Alcotest.(check string) q (P.kind_name expected) (P.kind_name (kind q planner)))
    [
      ("//item/name", `Chain);
      ("/site/regions/africa/item", `Chain);
      ("//person[creditcard]/name", `Twig);
      ("//item[description//listitem]", `Twig);
      ("//item[@id='x']", `Engine);
      ("//item[2]", `Engine);
      ("//name | //payment", `Engine);
      ("//listitem/ancestor::item", `Engine);
      (* structurally impossible label paths: refuted by the DataGuide *)
      ("//warehouse/item", `Pruned);
      ("//person/bidder/name", `Pruned);
    ]

let test_results_match_naive () =
  let planner, naive = setup () in
  List.iter
    (fun q ->
      check_node_list q (Rxpath.Eval.query naive q) (P.query planner q))
    [
      "//item/name";
      "/site/regions/africa/item";
      "//person[creditcard]/name";
      "//item[description//listitem]/quantity";
      "//item[@id='itemafrica1']";
      "//bidder[1]/increase";
      "//name | //payment";
      "//listitem/ancestor::item";
      "//annotation/preceding::bidder";
    ]

(* Property: for seeded random twig-fragment queries — including ones the
   DataGuide prunes to empty — the planner answers exactly what the RUID
   engine answers.  Tags mix real XMark labels with ones the generator
   never emits, so refutations are exercised alongside every join kind. *)
let gen_query st =
  let tags =
    [|
      "site"; "regions"; "item"; "name"; "description"; "payment";
      "quantity"; "people"; "person"; "profile"; "interest"; "creditcard";
      "open_auction"; "bidder"; "increase"; "current"; "closed_auction";
      "annotation"; "price"; "category"; "listitem"; "parlist"; "text";
      "warehouse"; "zzz";
    |]
  in
  let tag () = tags.(Random.State.int st (Array.length tags)) in
  let edge () = if Random.State.bool st then "/" else "//" in
  let b = Buffer.create 32 in
  let steps = 1 + Random.State.int st 3 in
  for _ = 1 to steps do
    Buffer.add_string b (edge ());
    Buffer.add_string b (tag ());
    if Random.State.int st 4 = 0 then
      Buffer.add_string b
        (match Random.State.int st 3 with
        | 0 -> Printf.sprintf "[%s]" (tag ())
        | 1 -> Printf.sprintf "[%s/%s]" (tag ()) (tag ())
        | _ -> Printf.sprintf "[%s//%s]" (tag ()) (tag ()))
  done;
  Buffer.contents b

let test_property_matches_ruid () =
  let planner, _ = setup () in
  let engine = P.engine planner in
  let seen = Hashtbl.create 8 in
  for seed = 1 to 50 do
    let st = Random.State.make [| seed |] in
    let q = gen_query st in
    Hashtbl.replace seen (kind q planner) ();
    check_node_list
      (Printf.sprintf "seed %d: %s" seed q)
      (Rxpath.Eval.query engine q) (P.query planner q)
  done;
  Alcotest.(check bool)
    "pruned-to-empty queries were generated" true
    (Hashtbl.mem seen `Pruned);
  Alcotest.(check bool)
    "plannable queries were generated" true
    (Hashtbl.mem seen `Chain)

let test_context_respected () =
  let planner, naive = setup () in
  let regions = List.hd (Rxpath.Eval.query naive "/site/regions") in
  check_node_list "relative plan from context"
    (Rxpath.Eval.query naive ~context:regions "africa/item/name")
    (P.query planner ~context:regions "africa/item/name")

let suite =
  [
    Alcotest.test_case "strategy selection" `Quick test_strategy_selection;
    Alcotest.test_case "results match the naive engine" `Quick test_results_match_naive;
    Alcotest.test_case "50-seed property: planner = ruid engine" `Quick
      test_property_matches_ruid;
    Alcotest.test_case "context respected" `Quick test_context_respected;
  ]

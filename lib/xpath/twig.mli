(** Twig (branching path) patterns: the compiled form of the XPath twig
    fragment.

    A twig is a tree of (tag, edge) nodes — edges are child or descendant —
    the shape behind XPath steps with structural predicates, e.g.
    [//item[name][description//text]/payment].  The branches are
    existential structural predicates; the spine is the extraction path,
    whose last node is the {e output} node.  {!Planner} refutes patterns
    against the DataGuide, costs them, and executes them as a twig-join
    over {!Doc_index} postings; the patterns themselves carry no
    execution. *)

type edge = Child | Descendant

type pattern = {
  tag : string;
  edge : edge;  (** relation to the pattern parent (or to the context for
                    the root) *)
  branches : pattern list;  (** structural predicates *)
  spine : pattern option;  (** continuation of the extraction path *)
}

val of_xpath : Ast.path -> pattern option
(** Compile an XPath whose steps are child/descendant name tests and whose
    predicates are (conjunctions of) relative child/descendant name-test
    paths — the twig fragment.  [None] for anything else. *)

(** Physical join plans.

    Section 1 motivates linear strategies by implementation concerns:
    they "can be programmed as nested loops, can take advantage of
    existing indices, and can use pipelining".  This module gives those
    words an executable meaning: a physical plan is the tree {!Exec}
    runs.  Every binary step is a hash join on the common attributes,
    because τ counts tuples generated, not work per tuple, so the
    per-step algorithm can move neither τ nor the answer.  The
    pipelining argument keeps its own executable form,
    {!Exec.execute_pipelined}.

    Beyond the binary steps, a plan may contain one n-ary
    [Generic_join] node: the worst-case-optimal join of a (typically
    cyclic) sub-hypergraph, evaluated attribute-by-attribute in a fixed
    elimination order with no binary intermediates — see
    {!Mj_relation.Frame.generic_join} and [Planner.Wcoj].

    α-acyclic queries get their own pair of nodes: [Semijoin_program]
    runs Yannakakis's algorithm over a rooted join tree (full semijoin
    reduction, then the joins in root-outward order — τ is exactly the
    join phase's output, semijoins generate nothing under the paper's
    measure), and [Ranked_enumerate] streams only the [k]
    lexicographically least result tuples out of the reduced tree — see
    [Planner.Yannakakis] and {!Mj_relation.Frame.topk}. *)

open Mj_relation
open Mj_hypergraph
open Multijoin

type t =
  | Scan of Scheme.t
  | Join of t * t  (** a binary hash join *)
  | Generic_join of Scheme.t list * Attr.t list
      (** [(relations, elimination order)]: the worst-case-optimal join
          of the listed base relations, binding attributes in the given
          order.  The order is a permutation of the relations' attribute
          union, fixed at plan time so execution is deterministic. *)
  | Semijoin_program of Jointree.rooted
      (** Yannakakis over the rooted join tree: leaf-to-root then
          root-to-leaf semijoin sweeps over the tree's base relations,
          then the left-deep join in root-outward ({!Jointree.join_order})
          order.  Only the join phase contributes τ entries. *)
  | Ranked_enumerate of Jointree.rooted * int
      (** The same reduction, then the [k] lexicographically least
          tuples (by {!Mj_relation.Tuple.compare}) of the result,
          enumerated without materializing the full join. *)

val of_strategy : Strategy.t -> t
(** Every step a hash join. *)

val strategy_of : t -> Strategy.t
(** The underlying join order.  A [Generic_join] has no binary structure to
    forget; it maps to the left-deep chain over its relations (the
    strategy shadow the planner's τ comparisons are made against), and a
    [Semijoin_program]/[Ranked_enumerate] to the left-deep chain over
    its {!Jointree.join_order} — the exact join phase it executes.
    @raise Invalid_argument if the plan violates (S3). *)

val schemes : t -> Scheme.Set.t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

open Import

(** Phase 1c — evaluation ordering (paper section 5.1.3).

    The instruction selector walks trees left to right with no backup,
    so a right-heavy tree can waste registers.  This phase:

    - swaps the operands of a binary operator when the right subtree has
      more nodes, substituting the {e reverse} operator when the
      operation is not commutative (and [reverse_ops] permits it);
      address-shaped left operands (constants, symbol addresses) are
      exempt so Phase 1b's canonical forms survive;
    - turns [Assign] into [Rassign] when the source is more complex than
      the destination;
    - predicts register exhaustion with a Sethi–Ullman-style labelling
      and factors over-demanding subtrees into compiler temporaries so
      the selector never runs out of registers mid-expression.

    [stats] counts how many operators were actually swapped, the
    paper's "<1% of expressions" measurement.

    Each subtree's size and register need are computed once, bottom-up,
    so the phase is linear in the size of the tree.  The spill guard
    replaces the first top-down subtree structurally equal to the one it
    extracted. *)

type stats = {
  mutable swapped_commutative : int;
  mutable swapped_reverse : int;
  mutable reversed_assigns : int;
  mutable spill_splits : int;
}

(** [leaf_need] is the target's Sethi–Ullman weight for a leaf operand
    (see {!register_need}); 0 for the VAX, 1 for a load/store target. *)
val run :
  ?reverse_ops:bool ->
  ?spill_guard:bool ->
  ?spill_limit:int ->
  ?leaf_need:int ->
  ?stats:stats ->
  Context.t ->
  Tree.stmt list ->
  Tree.stmt list

val default_spill_limit : int

val fresh_stats : unit -> stats

(** Sethi–Ullman register need of a tree under our selector (exposed for
    tests). *)
val register_need : Tree.t -> int

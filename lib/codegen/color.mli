open Import

(** Chaitin/Briggs graph-coloring register allocation (the [--regalloc
    color] path).  Runs on the virtual-register instruction stream of
    one function, after matching and before the peephole pass.
    Deterministic: colored output is byte-identical under any [-j]. *)

type stats = {
  rounds : int;  (** build/coalesce/color iterations until success *)
  coalesced : int;  (** moves merged by the Briggs conservative test *)
  self_moves_deleted : int;
  spilled_ranges : int;  (** live ranges rewritten through the frame *)
  spill_stores : int;  (** store instructions inserted *)
  spill_reloads : int;  (** reload instructions inserted *)
}

(** [run ~backend ~bank ~frame ~vinfo ~heat ~prov insns] colors the
    virtual registers of [insns] against [bank] (the backend's
    [alloc_regs] minus this function's reserved register variables) and
    returns the rewritten stream, its provenance (empty iff [prov]
    was), and allocation statistics.  [heat] is the optional
    production-id -> firing-count table weighting spill costs.
    Raises [Failure] if coloring does not converge. *)
val run :
  backend:Backend.t ->
  bank:int list ->
  frame:Frame.t ->
  vinfo:Regmgr.vreg_summary ->
  heat:(int * int) list ->
  prov:(int * int list * string) list ->
  Insn.t list ->
  Insn.t list * (int * int list * string) list * stats


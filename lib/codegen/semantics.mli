open Import

(** The semantic actions of the code generator: what happens at each
    reduction of the pattern matcher (paper sections 5.2-5.4).

    Reductions with [Mode] actions condense the matched phrase into an
    operand descriptor; [Emit] actions select an instruction from the
    instruction table, run the idiom recogniser (binding idioms, range
    idioms, pseudo-instruction expansion — section 5.3.2), call the
    register manager, and append assembly to the output buffer. *)

type t

(** [create ~idioms ~reserved frame] — [idioms:false] disables the
    idiom recogniser (the paper notes it is optional: correct but worse
    code results); [reserved] registers hold register variables and are
    withheld from the register manager; [allocatable] is the target's
    register bank and [move] its operand mover (both default to the
    VAX, see {!Regmgr.create}).  [explain] (default [false]) turns on
    instruction provenance, for [Driver.options.explain] or the
    colorer's heat weighting; [vreg_base] puts the register manager in
    virtual mode for the coloring allocator. *)
val create :
  ?idioms:bool ->
  ?explain:bool ->
  ?reserved:int list ->
  ?allocatable:int list ->
  ?move:(Dtype.t -> src:Mode.t -> dst:Mode.t -> Insn.t list) ->
  ?vreg_base:int ->
  Frame.t ->
  t

(** Matcher callbacks bound to this state and grammar, with the VAX
    mode builder and Emit dispatcher. *)
val callbacks : t -> Grammar.t -> Desc.sval Matcher.callbacks

(** The target-independent callback skeleton: shift wraps the terminal
    node, reduce dispatches [Chain]/[Start] to the first argument and
    [Mode]/[Emit] to the supplied dispatchers (with provenance
    bookkeeping), choose ranks equal-length candidates mode < chain <
    emit < start, then grammar order.  A second backend supplies its
    own dispatchers and inherits everything else. *)
val make_callbacks :
  t ->
  mode:(t -> Grammar.t -> string -> Grammar.production -> Desc.sval array -> Desc.sval) ->
  emit:(t -> Grammar.t -> string -> Grammar.production -> Desc.sval array -> Desc.sval) ->
  Grammar.t ->
  Desc.sval Matcher.callbacks

(** Instructions emitted so far, in order. *)
val output : t -> Insn.t list

(** Append an instruction directly (used by the driver for labels,
    jumps, calls and returns). *)
val emit : t -> Insn.t -> unit

val regmgr : t -> Regmgr.t
val frame : t -> Frame.t

(** Whether the idiom recogniser was enabled at [create]. *)
val idioms_enabled : t -> bool

(** {2 Helpers shared by backend semantic dispatchers} *)

(** The data type encoded in a production's lhs non-terminal suffix
    ([reg.l] -> [Long]), if any. *)
val lhs_type : Grammar.t -> Grammar.production -> Dtype.t option

(** Materialise a descriptor whose operand carries autoincrement side
    effects into a register so it can be referenced more than once
    (paper section 6.1); any other descriptor is returned unchanged. *)
val stable : t -> Desc.t -> Desc.t

(** The immediate value of a descriptor's operand, if it is one. *)
val immediate_value : Desc.t -> int64 option

(** Split an [Emit] key ["st.l"] into [("st", Some "l")]. *)
val parse_key : string -> string * string option

(** Destructure the [Cbranch] node of a branch production. *)
val branch_of_node : Tree.t -> Op.relop * Dtype.signedness * Dtype.t * Label.t

(** Destructure the [Binop] node of an operator production. *)
val binop_of_node : Tree.t -> Op.binop

(** {2 Instruction provenance}

    When [explain] was set at [create] time, every
    emitted instruction is paired with the source line current at the
    time of emission and the grammar production ids reduced since the
    previous emission.  Outside of explain mode these are no-ops and
    the emit path allocates nothing extra. *)

(** Set the current source line (from a [Tree.Sline] marker). *)
val set_line : t -> int -> unit

(** Mark the end of a statement tree: instructions emitted after this
    point and before the next reduction carry no production ids. *)
val end_tree : t -> unit

(** [(line, production ids, marker)] for each instruction of [output],
    in order.  The marker is [""] for ordinary instructions, ["spill"]
    or ["reload"] for register-manager traffic (which carries the
    provenance of the value being moved, not of the current
    reduction).  Empty unless provenance was enabled at [create]. *)
val provenance : t -> (int * int list * string) list

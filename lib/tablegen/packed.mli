(** Comb-compressed parse tables — the one production representation.

    The CGGWS the paper started from "produced tables that were too
    large" and its matcher "spent too much time … unpacking cumbersome
    tables" (section 2); table size is a recurring concern (sections 6.4
    and 9).  The sparse action/goto matrices are packed by the classic
    row-displacement (comb) technique — each state's row is slid over a
    single value array until its non-error entries fall into free slots,
    with an owner check array making lookups safe.

    LR rows are dominated by reduce entries, so before packing, each
    state's most frequent reduce becomes its {e default action} (the
    classic yacc-style transformation): only shifts, accepts and
    minority reduces are stored as exceptions.  Unlike yacc, a per-cell
    validity bitset records which cells hold a real action, so error
    cells answer [Error] instead of the default reduction.

    A heat profile ({!Heat}, after Samuelsson's example-based table
    optimisation) only chooses the row order.  Without one every state
    is {e hot} and rows pack densest-first.  With one, the states that
    carry ~90% of the estimated probe heat pack hottest-first, so the
    workload's working set lands in the low slots, and the remaining
    {e cold} states leave the comb for exact per-state exception lists.
    The hot comb is padded past every hot row's reach, so the hot probe
    needs no bounds check.

    Whatever the order, the table decodes cell-for-cell like the dense
    one — the same actions, [Error] cells and expected sets — the parity
    Nederhof & Satta require of compact tabular representations.  The
    tables embed the {!Gg_grammar.Grammar.digest} of their grammar and
    the {!Heat.digest} of their profile, and {!load} checks both. *)

type t

(** [pack ?profile tables] lays the dense [tables] out densest-first,
    or hottest-first with cold exception lists when [profile] is given.
    A profile with no usable heat (empty, or only foreign production
    ids) gives the densest-first layout, still keyed by its digest. *)
val pack : ?profile:Heat.t -> Tables.t -> t

(** First-fit row-displacement packing of [(row, (column, value) list)]
    rows, in the order given, into a (base, check, value) triple: each
    row lands at the lowest base where all its cells are free.  The
    search skips only bases that cannot fit, so the result is that of a
    plain scan from base 0 for every row.  [check] and [value] reach
    past every given row's base + [width] (unused slots are [-1] and
    [0]), so probing a row at any column stays in range. *)
val comb_pack :
  width:int ->
  n_states:int ->
  (int * (int * int) list) list ->
  int array * int array * int array

(** The decoded lookup, equal to the dense table's entry in every cell
    (including [Error] cells). *)
val action : t -> int -> int -> Tables.action

(** The same lookup as an integer code — the matcher's allocation-free
    view of the table.  [0] is error, [3] accept, [(s lsl 2) lor 1]
    shift to state [s], [(p lsl 2) lor 2] reduce by production [p], and
    [((i+1) lsl 2) lor 3] a semantic tie whose candidate productions
    are [tie_candidates t i]. *)
val action_code : t -> int -> int -> int

(** The candidate array of tie [i], in the same order the dense table's
    [Reduce] carries them. *)
val tie_candidates : t -> int -> int array

(** Is the state's row in the hot comb (rather than a cold exception
    list)? *)
val is_hot : t -> int -> bool

(** Terminals with a non-error action in a state, equal to
    {!Tables.expected} on the source tables. *)
val expected : t -> int -> int list

val goto : t -> int -> int -> int

(** The {!Gg_grammar.Grammar.digest} of the grammar the tables were
    built from. *)
val digest : t -> string

(** The {!Heat.digest} of the profile that ordered the rows, if any. *)
val profile_digest : t -> string option

(** Cell-for-cell parity against the dense tables: every action cell
    (including [Error]), every goto, every expected set.  [Error _]
    names the first differing cell. *)
val verify : t -> Tables.t -> (unit, string) result

type stats = {
  states : int;
  hot_states : int;
  dense_cells : int;  (** action + goto cells in the dense tables *)
  packed_cells : int;  (** slots used by all arrays + the bitset *)
  dense_bytes : int;  (** at one word per cell *)
  packed_bytes : int;
  ratio : float;  (** packed / dense *)
  hot_slots : int;  (** padded hot comb length *)
  cold_entries : int;  (** exact cold exception cells *)
}

val stats : t -> stats
val pp_stats : stats Fmt.t

(** The [ggcg-tables-v4] on-disk format: magic, then the marshalled
    tables with the embedded grammar and profile digests.  The tables
    are built once per target machine, as in the paper, and shipped
    with (or cached beside) the compiler. *)
val save : t -> string -> unit

(** Loads and validates.  Raises [Failure] on a wrong magic (including
    the retired v2 and v3 formats), truncation, a symbol-count,
    grammar-digest or profile-digest mismatch ([profile] absent means
    the file must carry none), and on arrays whose shape would let a
    probe read out of bounds. *)
val load : ?profile:Heat.t -> Gg_grammar.Grammar.t -> string -> t

open Import

(** On-disk cache of packed parse tables, keyed by grammar digest.

    The paper's table construction was the development bottleneck (the
    2 h → 10 min story, sections 7 and 9); even our optimised
    constructor is the dominant start-up cost of every [ggcc] run.  The
    cache makes construction a once-per-grammar event: files are named
    [tables-<target>-<digest>.tbl] under the cache directory, so an
    edited grammar automatically misses, two targets can never collide
    on disk even if their grammars happened to digest identically, and
    a stale file can never be picked up.  {!Packed.load} additionally
    re-verifies the embedded digest.

    The directory is [$GGCG_CACHE_DIR], else [$XDG_CACHE_HOME/ggcg],
    else [~/.cache/ggcg] (a temp-dir fallback covers HOME-less
    environments).  All writes are atomic (write + rename) and all
    failures degrade to rebuilding in memory — the cache can never make
    a compile fail. *)

val default_dir : unit -> string

(** The cache file for this grammar, target (default ["vax"]) and
    optional row-order profile (the file need not exist):
    [tables-<target>-<grammar digest>.tbl], or
    [tables-<target>-<grammar digest>-p<profile digest>.tbl] with a
    profile, so one grammar keeps one entry per workload profile and an
    edited profile automatically misses. *)
val path :
  ?dir:string -> ?target:string -> ?profile:Heat.t -> Grammar.t -> string

(** One cache entry, parsed from its filename (no file is opened except
    to size it). *)
type entry = {
  e_file : string;
  e_target : string;
  e_grammar_digest : string;
  e_profile_digest : string option;  (** [Some _] on profiled entries *)
  e_bytes : int;
}

(** Every [tables-*.tbl] in the cache directory, with and without a
    profile, sorted by filename. *)
val list : ?dir:string -> unit -> entry list

(** [load g] — the cached tables, or [None] if absent, stale or
    unreadable.  Timed under ["tables.load"] when profiling. *)
val load :
  ?dir:string ->
  ?target:string ->
  ?profile:Heat.t ->
  Grammar.t ->
  Packed.t option

(** Best-effort atomic store under the table's own profile digest;
    returns [false] if the directory is not writable or the file cannot
    be put in place, and then leaves no temporary file behind. *)
val store : ?dir:string -> ?target:string -> Grammar.t -> Packed.t -> bool

(** Build and pack tables without touching the disk (timed under
    ["tables.build"]).  A profiled layout is {!Packed.verify}d against
    the dense tables first and raises [Failure] if it differs. *)
val build : ?profile:Heat.t -> Grammar.t -> Packed.t

(** Evict cache entries that can never be loaded again: every baseline
    [tables-*.tbl] that is not one of the [live] (target, grammar)
    pairs' entries (the grammar changed underneath them, or the file
    predates target-keyed names), every profiled entry whose grammar
    digest is stale {e or} — when [live_profiles] is given — whose
    profile digest is not in it (omitting [live_profiles] keeps any
    profiled entry of a live grammar), and every [tables-*.tmp]
    orphaned by an interrupted store.  Returns the removed files with
    their sizes in bytes, sorted; live entries are never touched and
    unremovable files are skipped silently. *)
val clear_stale :
  ?dir:string ->
  ?live_profiles:string list ->
  (string * Grammar.t) list ->
  (string * int) list

(** The production path: cached tables if present, else build and
    store.  Updates the {!Gg_profile.Telemetry.counters} hit/miss
    counts. *)
val load_or_build :
  ?dir:string -> ?target:string -> ?profile:Heat.t -> Grammar.t -> Packed.t

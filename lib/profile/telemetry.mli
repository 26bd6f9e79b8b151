(** The one telemetry registry.

    The paper's Fig. 2 observation — "roughly one half of code
    generation time is spent pattern matching" — is a measurement, and
    so is Samuelsson's table optimisation: which productions fire, how
    matcher work is distributed over trees.  Every number the compiler
    reports about itself lives here: the matcher's event counters and
    per-production reduction counts, named counters, fixed-bucket
    histograms, leaf-phase timers and trace events.

    Every domain records into its own shard without synchronisation,
    so the matcher hot loop costs the same under [ggcc -j N] as
    single-threaded.  Reads ({!totals}, {!snapshot}) merge the shards,
    which is exact once the writing domains have joined (the
    {!Gg_codegen.Parallel} pool joins its workers before returning) and
    momentarily stale, nothing worse, while they still write.

    One {!level} decides what is recorded beyond the always-on counters
    (the matcher's event counts, table-cache hits and misses,
    per-production reduction counts and the named counters):
    - [Counters] adds histogram observations and the counters that cost
      a table update per event (spills, reloads, hot/cold probes);
    - [Timers] adds the leaf-phase timers ({!span}s of category
      ["phase"]);
    - [Trace] adds a begin and an end event for every {!span}. *)

type level = Off | Counters | Timers | Trace

val level : unit -> level

(** Sets the level for every domain; the daemon sets it once at start. *)
val set_level : level -> unit

(** [with_level l f] runs [f] at level [l] and puts the previous level
    back afterwards, also when [f] raises. *)
val with_level : level -> (unit -> 'a) -> 'a

(** [at_least l]: the current level records [l]'s instruments. *)
val at_least : level -> bool

(** {1 Always-on counters} *)

type counters = {
  mutable shifts : int;
  mutable reduces : int;
  mutable semantic_choices : int;  (** ties resolved by [choose] *)
  mutable matcher_runs : int;  (** trees matched *)
  mutable rejects : int;  (** syntactic blocks raised *)
  mutable cache_hits : int;  (** packed tables loaded from disk *)
  mutable cache_misses : int;  (** packed tables rebuilt *)
  mutable fired : int array;
      (** reductions per production id; grown by {!count_production} *)
  mutable _pad0 : int;
      (** the [_pad*] fields only stretch the record past a cache line,
          so per-domain shards never false-share; ignore them *)
  mutable _pad1 : int;
  mutable _pad2 : int;
  mutable _pad3 : int;
  mutable _pad4 : int;
  mutable _pad5 : int;
  mutable _pad6 : int;
}

(** The calling domain's own counters.  Hot paths fetch this once and
    bump its fields directly; it holds this domain's share, not the
    totals. *)
val counters : unit -> counters

(** One reduction by production [pid], next to the [reduces] bump. *)
val count_production : counters -> int -> unit

(** The counters summed over every domain; [fired] is the merged
    per-production array. *)
val totals : unit -> counters

(** [counting_productions f] runs [f] and returns its result with the
    [(production id, reductions)] pairs [f] added, by id: the
    instrument behind the fuzzer's coverage report and the heat
    profiles. *)
val counting_productions : (unit -> 'a) -> 'a * (int * int) list

(** [incr ?by name] bumps a named counter in the calling domain's
    shard, at any level. *)
val incr : ?by:int -> string -> unit

(** {1 Histograms} *)

type histogram

(** Wall microseconds spent matching one tree. *)
val tree_match_us : histogram

(** Reductions performed while matching one tree. *)
val tree_reductions : histogram

(** Deepest parse-stack occupancy while matching one tree. *)
val stack_high_water : histogram

(** Instructions emitted per compiled function (before rendering). *)
val insns_per_func : histogram

(** Values spilled to frame temporaries per compiled function. *)
val spills_per_func : histogram

(** Microseconds a daemon request waited between accept and a worker. *)
val queue_wait_us : histogram

(** Microseconds from accepting a daemon connection to its reply. *)
val request_latency_us : histogram

(** [observe h v] adds [v] to [h] (values beyond the last bound land in
    the overflow bucket); a no-op below [Counters].  No allocation. *)
val observe : histogram -> int -> unit

(** {1 Spans} *)

(** [span ?cat ?args name f] runs [f] as a unit of timed work.  A span
    of category ["phase"] (the default) is a leaf phase: from [Timers]
    its wall time accumulates in the phase table.  At [Trace] every
    span also records a begin and an end event carrying [args], on one
    pair of clock reads, so trace durations and the phase table agree.
    The end is recorded even if [f] raises; below the span's level it
    is the plain application [f ()]. *)
val span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Microseconds since the process's trace epoch. *)
val now_us : unit -> float

(** {1 Reading} *)

type histo_view = {
  hv_name : string;
  hv_unit : string;
  hv_count : int;
  hv_sum : int;
  hv_max : int;
  hv_buckets : (int option * int) list;
      (** [(upper bound, count)] in bound order, [None] the overflow
          bucket; the counts sum to [hv_count] *)
  hv_p50 : float;
  hv_p99 : float;
}

(** The merged view of one histogram. *)
val view : histogram -> histo_view

(** [quantile v q] estimates the [q]-quantile by linear interpolation
    inside the bucket the [q]-th observation falls in (the overflow
    bucket ends at the observed max); [0.] when empty.  Deterministic
    in the bucket counts, so two views of the same observations
    agree exactly. *)
val quantile : histo_view -> float -> float

type phase = B | E

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts : float;  (** microseconds since the trace epoch *)
  ev_track : int;  (** id of the recording domain *)
  ev_args : (string * string) list;
}

type snapshot = {
  totals : counters;
  named : (string * int) list;  (** by name *)
  phases : (string * float * int) list;
      (** (phase, seconds, calls), slowest first *)
  histograms : histo_view list;  (** in registration order *)
  events : event list Lazy.t;
      (** every track in record order, so balanced and nested per track *)
}

(** One view of the whole registry, safe to take from any thread while
    other domains record. *)
val snapshot : unit -> snapshot

(** The base counters under their exposition names, then the named
    counters. *)
val counter_list : snapshot -> (string * int) list

(** Clear every shard.  Call only while no other domain records. *)
val reset : unit -> unit

(** {1 Expositions} — each one a view of a {!snapshot} *)

(** The [--profile] report: the phase table (with shares of its total)
    then the matcher and table-cache counters. *)
val pp_profile : snapshot Fmt.t

(** The [--metrics] report: counters, the shift/reduce ratio and one
    bar-rendered table per histogram. *)
val pp_metrics : snapshot Fmt.t

(** The metrics document of a fresh snapshot — counters, ratios,
    phases and histograms — as text: the admin [stats] reply and the
    [--metrics-out] sidecar, byte for byte. *)
val metrics_doc : unit -> string

(** Chrome [trace_event] document, one track per domain, with the
    epoch as absolute unix microseconds ([epochUs]) so traces of
    different processes can be merged. *)
val trace_json : snapshot -> Json.t

(** Prometheus text exposition (0.0.4): counters, and histograms with
    cumulative [le] buckets, [_sum] and [_count], named [ggcg_*]. *)
val prometheus : snapshot -> string

(** [write_atomic path text] writes through a [.tmp] sibling renamed
    into place, so no reader sees a torn document. *)
val write_atomic : string -> string -> unit

val write_metrics : string -> unit
val write_trace : string -> unit

(** [with_outputs ?profile ?metrics ?metrics_out ?trace_out f] arms the
    level the outputs need ([--metrics]: [Counters]; [--profile] and
    [--metrics-out]: [Timers], the sidecar carries the phase table;
    [--trace-out]: [Trace]), clearing the registry when any is asked
    for, and runs [f].  When [f] returns, the reports go to stderr; the
    sidecar files are written atomically whether [f] returns or
    raises.  The previous level comes back afterwards. *)
val with_outputs :
  ?profile:bool ->
  ?metrics:bool ->
  ?metrics_out:string ->
  ?trace_out:string ->
  (unit -> 'a) ->
  'a

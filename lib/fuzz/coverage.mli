open Import

(** Grammar-production coverage accounting.

    Which productions of the machine grammar actually fire during
    matching — per run and cumulatively — after Samuelsson's
    example-based measurement of which table entries a corpus
    exercises.  The matcher counts every reduction per production
    ({!Gg_profile.Telemetry.count_production}, always on); this module
    turns the id counts into reports against a grammar. *)

(** [with_fired f] runs [f] and returns its result plus the sorted ids
    of the productions that fired {e during} [f]. *)
val with_fired : (unit -> 'a) -> 'a * int list

type report = {
  total : int;
  fired : int list;  (** production ids, sorted *)
  never_fired : int list;
}

val report : Grammar.t -> fired:int list -> report

(** Production ids fired by the fixed mini-C corpus plus the
    straight-line typed-tree corpus — the pre-fuzzer baseline the
    campaign's coverage is compared against. *)
val baseline : Driver.tables -> int list

(** Render a report; [baseline] (if given) adds the fired-vs-baseline
    comparison line.  [verbose] lists every never-fired production. *)
val pp_report :
  ?baseline:int list -> ?verbose:bool -> Grammar.t -> report Fmt.t

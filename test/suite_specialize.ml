(* Differential tests for heat-ordered packing ([Packed.pack
   ~profile]): for any profile — observed, empty, uniform or
   adversarial — the table must decode cell-for-cell like the dense
   one, drive the matcher to the dense reference loop's traces and
   rejects, and compile the corpus to byte-identical assembly on both
   targets.  Plus the profile digest in the saved file, the
   (grammar, profile)-keyed cache entries, and the hot/cold probe
   counters. *)

open Gg_grammar
open Gg_tablegen
open Gg_matcher
module Tree = Gg_ir.Tree
module Transform = Gg_transform.Transform
module Grammar_def = Gg_vax.Grammar_def
module Driver = Gg_codegen.Driver
module Backend = Gg_codegen.Backend
module Targets = Gg_targets.Targets
module Sema = Gg_frontc.Sema
module Corpus = Gg_frontc.Corpus
module Telemetry = Gg_profile.Telemetry

let vax_grammar = lazy (Grammar_def.grammar Grammar_def.default)
let dense = lazy (Tables.build (Lazy.force vax_grammar))
let packed = lazy (Packed.pack (Lazy.force dense))

let null_cb : unit Matcher.callbacks =
  {
    Matcher.on_shift = (fun _ -> ());
    on_reduce = (fun _ _ -> ());
    choose = (fun _ _ -> 0);
  }

let stmt_trees prog =
  List.concat_map
    (fun (f : Tree.func) ->
      let tr = Transform.run f in
      List.filter_map
        (function Tree.Stree t -> Some t | _ -> None)
        tr.Transform.func.Tree.body)
    prog.Tree.funcs

let corpus_trees =
  lazy
    (List.concat_map
       (fun (_, src) -> stmt_trees (Sema.compile src))
       Corpus.fixed_programs
    @ List.concat_map
        (fun seed ->
          stmt_trees
            (Sema.lower_program
               (Corpus.program ~seed ~functions:2 ~stmts_per_function:8)))
        [ 1; 2; 3 ])

let corpus_tokens =
  lazy
    (List.map
       (fun t -> Gg_ir.Termname.linearize t)
       (Lazy.force corpus_trees))

(* the observed profile: what the corpus itself fires *)
let observed_profile =
  lazy
    (let (), counts =
       Telemetry.counting_productions (fun () ->
           List.iter
             (fun toks ->
               ignore
                 (Reference.run (Lazy.force dense) null_cb toks
                   : unit Matcher.outcome))
             (Lazy.force corpus_tokens))
     in
     Heat.of_counts counts)

let specialized profile = Packed.pack ~profile (Lazy.force dense)

let spec_hot = lazy (specialized (Lazy.force observed_profile))

let spec_engine spec =
  Matcher.packed_engine ~grammar:(Lazy.force vax_grammar) spec

let run_outcome run tokens =
  match run null_cb tokens with
  | (outcome : unit Matcher.outcome) -> Ok outcome.Matcher.trace
  | exception Matcher.Reject e -> Error e

let dense_outcome tokens =
  run_outcome (Reference.run ~trace:true (Lazy.force dense)) tokens

let spec_outcome se tokens =
  run_outcome (Matcher.run_engine ~trace:true se) tokens

let check_same_traces what spec =
  let se = spec_engine spec in
  List.iteri
    (fun i tokens ->
      let d = dense_outcome tokens in
      let s = spec_outcome se tokens in
      match (d, s) with
      | Ok dt, Ok st ->
        if dt <> st then Alcotest.failf "%s: tree %d: traces differ" what i
      | Error de, Error se ->
        if
          de.Matcher.at <> se.Matcher.at
          || de.Matcher.state <> se.Matcher.state
          || de.Matcher.expected <> se.Matcher.expected
        then Alcotest.failf "%s: tree %d: rejects differ" what i
      | Ok _, Error e ->
        Alcotest.failf "%s: tree %d: specialized rejected (%a)" what i
          Matcher.pp_error e
      | Error _, Ok _ ->
        Alcotest.failf "%s: tree %d: specialized accepted a reject" what i)
    (Lazy.force corpus_tokens)

let test_verify_observed () =
  match Packed.verify (Lazy.force spec_hot) (Lazy.force dense) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify: %s" m

(* the parity invariant on both targets' full tables, for the layout
   without a profile and for the auto heat profile *)
let test_verify_both_targets () =
  List.iter
    (fun target ->
      let b = Targets.backend_of target in
      let dense = Tables.build (Lazy.force b.Backend.default_grammar) in
      List.iter
        (fun profile ->
          match Packed.verify (Packed.pack ?profile dense) dense with
          | Ok () -> ()
          | Error m -> Alcotest.failf "%s: %s" (Targets.name target) m)
        [ None; Some (Targets.heat_profile target) ])
    Targets.all

let test_traces_observed () =
  check_same_traces "observed profile" (Lazy.force spec_hot)

let test_traces_empty_profile () =
  (* no heat at all: the degenerate all-hot layout must still be exact *)
  let spec = specialized Heat.empty in
  (match Packed.verify spec (Lazy.force dense) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify(empty): %s" m);
  check_same_traces "empty profile" spec

let test_traces_uniform_profile () =
  let g = Lazy.force vax_grammar in
  let uniform =
    Heat.of_counts (List.init (Grammar.n_productions g) (fun id -> (id, 1)))
  in
  let spec = specialized uniform in
  (match Packed.verify spec (Lazy.force dense) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify(uniform): %s" m);
  check_same_traces "uniform profile" spec

(* specialization must be exact for ANY profile: random ids (including
   ids no grammar has), huge counts, duplicates — the profile may only
   steer layout, never meaning *)
let test_qcheck_adversarial_profiles () =
  let gen =
    QCheck.list_of_size (QCheck.Gen.int_range 0 40)
      (QCheck.pair (QCheck.int_range 0 5000) (QCheck.int_range (-5) 1_000_000))
  in
  let some_trees =
    match Lazy.force corpus_tokens with
    | a :: b :: c :: _ -> [ a; b; c ]
    | ts -> ts
  in
  let prop raw =
    let profile = Heat.of_counts raw in
    let spec = specialized profile in
    (match Packed.verify spec (Lazy.force dense) with
    | Ok () -> ()
    | Error m -> QCheck.Test.fail_reportf "verify: %s" m);
    let se = spec_engine spec in
    List.for_all
      (fun tokens -> dense_outcome tokens = spec_outcome se tokens)
      some_trees
  in
  let test =
    QCheck.Test.make ~name:"adversarial profiles stay exact" ~count:25 gen
      prop
  in
  QCheck.Test.check_exn test

(* byte-identical assembly from the densest-first and the heat-ordered
   layouts across the fuzz corpus on both targets *)
let fuzz_seeds = List.init 201 (fun s -> s)

let test_fuzz_assembly_parity () =
  List.iter
    (fun target ->
      let profile = Targets.heat_profile target in
      let baseline = Targets.default_tables target in
      let spec_tables =
        Targets.build_tables ~profile target
          Driver.default_options.Driver.grammar
      in
      List.iter
        (fun seed ->
          let prog =
            Sema.lower_program
              (Corpus.program ~seed ~functions:2 ~stmts_per_function:8)
          in
          let asm tables =
            (Driver.compile_program ~tables prog).Driver.assembly
          in
          if asm baseline <> asm spec_tables then
            Alcotest.failf "%s: seed %d: assembly differs"
              (Targets.name target) seed)
        fuzz_seeds)
    Targets.all

let test_spec_bytes_not_larger () =
  (* the resident-footprint gate: specialization may never cost bytes *)
  List.iter
    (fun target ->
      let b = Targets.backend_of target in
      let g = Lazy.force b.Backend.default_grammar in
      let dense = Tables.build g in
      let packed = Packed.pack dense in
      let profile = Targets.heat_profile target in
      let spec = Packed.pack ~profile dense in
      let pb = (Packed.stats packed).Packed.packed_bytes in
      let sb = (Packed.stats spec).Packed.packed_bytes in
      if sb > pb then
        Alcotest.failf "%s: specialized %d bytes > baseline %d bytes"
          (Targets.name target) sb pb)
    Targets.all

let test_stats_shape () =
  let s = Packed.stats (Lazy.force spec_hot) in
  Alcotest.(check bool) "some states hot" true (s.Packed.hot_states > 0);
  Alcotest.(check bool)
    "not every state hot" true
    (s.Packed.hot_states < s.Packed.states);
  Alcotest.(check bool) "cold entries exist" true (s.Packed.cold_entries > 0);
  (* without a profile every state is hot and nothing is cold *)
  let b = Packed.stats (Lazy.force packed) in
  Alcotest.(check int) "all hot without a profile" b.Packed.states
    b.Packed.hot_states;
  Alcotest.(check int) "no cold entries without a profile" 0
    b.Packed.cold_entries

let test_probe_counters () =
  let se = spec_engine (Lazy.force spec_hot) in
  let counters =
    Telemetry.with_level Counters (fun () ->
        Telemetry.reset ();
        List.iter
          (fun tokens ->
            ignore (Matcher.run_engine se null_cb tokens : unit Matcher.outcome))
          (Lazy.force corpus_tokens);
        (Telemetry.snapshot ()).named)
  in
  let get n = try List.assoc n counters with Not_found -> 0 in
  let hot = get "matcher.probe_hits_hot" in
  let cold = get "matcher.probe_hits_cold" in
  if hot = 0 then Alcotest.fail "no hot probes recorded";
  (* the profile was collected from this very corpus: the hot partition
     must dominate its own probes *)
  if hot <= cold then
    Alcotest.failf "hot probes (%d) do not dominate cold (%d)" hot cold

let test_heat_canonical () =
  let a = Heat.of_counts [ (3, 5); (1, 2); (3, 1) ] in
  let b = Heat.of_counts [ (1, 2); (3, 6) ] in
  Alcotest.(check string) "digest merges duplicates" (Heat.digest a)
    (Heat.digest b);
  Alcotest.(check int) "total" 8 a.Heat.total;
  let c = Heat.of_counts [ (1, 2); (3, 6); (7, 0); (9, -4); (-1, 3) ] in
  Alcotest.(check string) "non-positive and negative-id entries dropped"
    (Heat.digest a) (Heat.digest c);
  (* round trip through the JSON document *)
  let p = Lazy.force observed_profile in
  let p' = Heat.parse (Heat.to_json_string p) in
  Alcotest.(check string) "json round trip" (Heat.digest p) (Heat.digest p');
  Alcotest.(check string) "byte-deterministic rendering"
    (Heat.to_json_string p)
    (Heat.to_json_string p')

let test_save_load () =
  let g = Lazy.force vax_grammar in
  let spec = Lazy.force spec_hot in
  let path = Filename.temp_file "spec-tables" ".tbl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let profile = Lazy.force observed_profile in
  Packed.save spec path;
  let loaded = Packed.load ~profile g path in
  (match Packed.verify loaded (Lazy.force dense) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify after load: %s" m);
  Alcotest.(check (option string)) "profile digest survives"
    (Some (Heat.digest profile))
    (Packed.profile_digest loaded);
  (* the profile digest is part of the file's key: a file without one
     is refused under a profile, and vice versa *)
  let refused what profile =
    match Packed.load ?profile g path with
    | _ -> Alcotest.failf "loaded %s" what
    | exception Failure _ -> ()
  in
  refused "a profiled file without a profile" None;
  refused "despite a profile digest mismatch" (Some Heat.empty);
  Packed.save (Lazy.force packed) path;
  refused "a file without a profile under one" (Some profile)

let with_temp_cache_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "ggcg-spec-test-%d" (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let test_cache_roundtrip () =
  with_temp_cache_dir @@ fun dir ->
  let g = Lazy.force vax_grammar in
  let profile = Lazy.force observed_profile in
  let spec = Lazy.force spec_hot in
  Alcotest.(check bool) "store" true (Cache.store ~dir ~target:"vax" g spec);
  (match Cache.load ~dir ~target:"vax" ~profile g with
  | Some t ->
    Alcotest.(check (option string)) "profile digest"
      (Some (Heat.digest profile))
      (Packed.profile_digest t)
  | None -> Alcotest.fail "cache miss after store");
  (* a different or absent profile misses: the digest is part of the key *)
  (match Cache.load ~dir ~target:"vax" ~profile:Heat.empty g with
  | Some _ -> Alcotest.fail "hit with the wrong profile"
  | None -> ());
  match Cache.load ~dir ~target:"vax" g with
  | Some _ -> Alcotest.fail "hit without a profile"
  | None -> ()

let test_cache_listing_and_eviction () =
  with_temp_cache_dir @@ fun dir ->
  let g = Lazy.force vax_grammar in
  let profile = Lazy.force observed_profile in
  let spec = Lazy.force spec_hot in
  let packed = Lazy.force packed in
  ignore (Cache.store ~dir ~target:"vax" g packed : bool);
  ignore (Cache.store ~dir ~target:"vax" g spec : bool);
  (* listing tells entries with and without a profile apart *)
  let entries = Cache.list ~dir () in
  Alcotest.(check int) "two entries" 2 (List.length entries);
  let spec_entries =
    List.filter (fun e -> e.Cache.e_profile_digest <> None) entries
  in
  (match spec_entries with
  | [ e ] ->
    Alcotest.(check (option string))
      "profile digest listed"
      (Some (Heat.digest profile))
      e.Cache.e_profile_digest;
    Alcotest.(check bool) "bytes measured" true (e.Cache.e_bytes > 0)
  | _ -> Alcotest.fail "expected exactly one specialized entry");
  let live = [ ("vax", g) ] in
  (* live grammar, no declared profiles: the specialized entry stays *)
  let removed = Cache.clear_stale ~dir live in
  Alcotest.(check int) "nothing stale yet" 0 (List.length removed);
  (* live grammar but a different live profile: evicted *)
  let removed =
    Cache.clear_stale ~dir ~live_profiles:[ Heat.digest Heat.empty ] live
  in
  Alcotest.(check int) "stale profile evicted" 1 (List.length removed);
  (* stale grammar: a fresh specialized entry goes too *)
  ignore (Cache.store ~dir ~target:"vax" g spec : bool);
  let removed = Cache.clear_stale ~dir [] in
  Alcotest.(check int) "stale grammar evicts everything" 2
    (List.length removed)

let suite =
  [
    Alcotest.test_case "verify: observed profile" `Quick test_verify_observed;
    Alcotest.test_case "verify: both targets, with and without a profile"
      `Quick test_verify_both_targets;
    Alcotest.test_case "traces: observed profile" `Quick test_traces_observed;
    Alcotest.test_case "traces: empty profile" `Quick test_traces_empty_profile;
    Alcotest.test_case "traces: uniform profile" `Quick
      test_traces_uniform_profile;
    Alcotest.test_case "qcheck: adversarial profiles" `Slow
      test_qcheck_adversarial_profiles;
    Alcotest.test_case "fuzz corpus: assembly parity, both targets" `Slow
      test_fuzz_assembly_parity;
    Alcotest.test_case "specialized bytes <= baseline" `Quick
      test_spec_bytes_not_larger;
    Alcotest.test_case "stats shape" `Quick test_stats_shape;
    Alcotest.test_case "hot/cold probe counters" `Quick test_probe_counters;
    Alcotest.test_case "heat profile canonicalisation" `Quick
      test_heat_canonical;
    Alcotest.test_case "profiled save/load validation" `Quick test_save_load;
    Alcotest.test_case "cache round trip" `Quick test_cache_roundtrip;
    Alcotest.test_case "cache listing and eviction" `Quick
      test_cache_listing_and_eviction;
  ]

(* Benchmark harness: regenerates every measured claim of the paper's
   evaluation (section 8 and the quantified asides), one section per
   experiment.  EXPERIMENTS.md records paper-vs-measured for each.

   Absolute numbers differ from 1982 hardware by construction; the
   *shape* of each result (who wins, by what factor) is the target. *)

open Gg_ir
module Grammar = Gg_grammar.Grammar
module Tables = Gg_tablegen.Tables
module Naive = Gg_tablegen.Naive
module Lr0 = Gg_tablegen.Lr0
module Packed = Gg_tablegen.Packed
module Telemetry = Gg_profile.Telemetry
module Matcher = Gg_matcher.Matcher
module Transform = Gg_transform.Transform
module Phase1c = Gg_transform.Phase1c
module Grammar_def = Gg_vax.Grammar_def
module Insn = Gg_ir.Insn
module Driver = Gg_codegen.Driver
module Backend = Gg_codegen.Backend
module Targets = Gg_targets.Targets
module Simout = Gg_ir.Simout
module Pcc = Gg_pcc.Pcc
module Sema = Gg_frontc.Sema
module Corpus = Gg_frontc.Corpus
module Machine = Gg_vaxsim.Machine
module Server = Gg_server.Server
module Protocol = Gg_server.Protocol
module Client = Gg_server.Client
module Slog = Gg_server.Slog
module Parallel = Gg_codegen.Parallel

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

(* [measured l f]: [f] on a cleared registry, at level [l] or the
   higher level a global --trace-out / --metrics-out armed *)
let measured l f =
  Telemetry.with_level (if Telemetry.at_least l then Telemetry.level () else l)
  @@ fun () ->
  Telemetry.reset ();
  f ()

(* non-flag arguments select sections by key (e.g. `main.exe throughput`);
   no arguments runs everything *)
let selected =
  Array.to_list Sys.argv |> List.tl
  |> List.filter (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--"))

let want key = selected = [] || List.mem key selected

(* --trace-out=FILE / --metrics-out=FILE: arm the telemetry subsystem
   for the whole run and write the exports before exiting, so a bench
   session is inspectable in chrome://tracing like any ggcc compile *)
let flag_value name =
  let prefix = "--" ^ name ^ "=" in
  let n = String.length prefix in
  Array.to_list Sys.argv
  |> List.find_map (fun a ->
         if String.length a > n && String.sub a 0 n = prefix then
           Some (String.sub a n (String.length a - n))
         else None)

let trace_out = flag_value "trace-out"
let metrics_out = flag_value "metrics-out"

(* --target=vax|risc retargets the gg-backend measurements (the
   throughput section); the retarget section always measures both *)
let bench_target =
  match flag_value "target" with
  | None -> Gg_codegen.Backend.Vax
  | Some s -> (
    match Gg_targets.Targets.of_string s with
    | Some t -> t
    | None ->
      Fmt.epr "unknown --target=%s (vax or risc)@." s;
      exit 2)

let section title = Fmt.pr "@.=== %s ===@." title
let row fmt = Fmt.pr fmt

(* examples/c as (path, source) in name order when run from the repo
   root; empty elsewhere, and each section falls back to its own
   built-in programs *)
let example_sources () =
  let dir = "examples/c" in
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
    |> List.map (fun f ->
           let file = Filename.concat dir f in
           (file, In_channel.with_open_bin file In_channel.input_all))
  else []

(* -- Bechamel helpers --------------------------------------------------------- *)

open Bechamel
open Toolkit

(* run named thunks under Bechamel; returns ns/run keyed by the name *)
let measure_ns tests =
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg
      ~limit:(if quick then 100 else 500)
      ~quota:(Time.second (if quick then 0.25 else 1.0))
      ()
  in
  let tests =
    List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) tests
  in
  let grouped = Test.make_grouped ~name:"bench" tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> (name, ns) :: acc
      | _ -> acc)
    results []

(* best-of-[repeats] per test: on a shared box a single Bechamel pass
   can absorb scheduler noise; the minimum estimate is the least
   contaminated one *)
let measure_ns_best ~repeats tests =
  let all = List.concat (List.init repeats (fun _ -> measure_ns tests)) in
  List.sort_uniq compare (List.map fst all)
  |> List.map (fun name ->
         ( name,
           List.fold_left
             (fun acc (n, v) -> if n = name then Float.min acc v else acc)
             Float.infinity all ))

let lookup results key =
  (* grouped test names carry a prefix; match by suffix *)
  List.find_map
    (fun (name, v) ->
      let n = String.length name and k = String.length key in
      if n >= k && String.sub name (n - k) k = key then Some v else None)
    results

(* -- corpora ------------------------------------------------------------------ *)

let corpus_program =
  lazy
    (Sema.lower_program
       (Corpus.large_program ~seed:42
          ~target_stmts:(if quick then 150 else 600)))

let fixed_progs =
  lazy (List.map (fun (n, s) -> (n, Sema.compile s)) Corpus.fixed_programs)

(* ============================================================================ *)
(* T-GRAM: grammar and table statistics (section 8, first paragraph)            *)
(* ============================================================================ *)

let bench_grammar_stats () =
  section "T-GRAM: machine description and table statistics (paper section 8)";
  let o = Grammar_def.default in
  let schemas = Grammar_def.schemas o in
  let g = Grammar_def.grammar o in
  let gs = Grammar.stats g in
  let t = Tables.build g in
  let ts = Tables.stats t in
  row "generic schemas (pre-replication):    %d   (paper: 458)@."
    (List.length schemas);
  row "replicated productions:               %d   (paper: 1073)@."
    gs.Grammar.productions;
  row "terminals:                            %d   (paper: 219)@."
    gs.Grammar.terminals;
  row "non-terminals:                        %d   (paper: 148)@."
    gs.Grammar.nonterminals;
  row "parser states:                        %d   (paper: 2216)@."
    ts.Tables.states;
  row "replication growth factor:            %.2fx (paper: 2.34x)@."
    (float_of_int gs.Grammar.productions /. float_of_int (List.length schemas));
  row "conflicts: %d shift/reduce, %d reduce/reduce, %d semantic ties@."
    ts.Tables.conflicts.Tables.shift_reduce
    ts.Tables.conflicts.Tables.reduce_reduce
    ts.Tables.conflicts.Tables.semantic_ties

(* ============================================================================ *)
(* T-REV: the reverse-operator ablation (section 5.1.3)                         *)
(* ============================================================================ *)

let bench_reverse_ops () =
  section "T-REV: reverse binary operators ablation (paper section 5.1.3)";
  let with_r = Grammar_def.grammar Grammar_def.default in
  let without_r =
    Grammar_def.grammar
      { Grammar_def.default with Grammar_def.reverse_ops = false }
  in
  let p_with = (Grammar.stats with_r).Grammar.productions in
  let p_without = (Grammar.stats without_r).Grammar.productions in
  let t_with = Tables.stats (Tables.build with_r) in
  let t_without = Tables.stats (Tables.build without_r) in
  row "grammar size:  %d -> %d productions (+%.0f%%)   (paper: +25%%)@."
    p_without p_with
    (100. *. float_of_int (p_with - p_without) /. float_of_int p_without);
  row
    "table size:    %d -> %d states (+%.0f%%), %d -> %d action entries \
     (+%.0f%%)   (paper: +60%%)@."
    t_without.Tables.states t_with.Tables.states
    (100.
    *. float_of_int (t_with.Tables.states - t_without.Tables.states)
    /. float_of_int t_without.Tables.states)
    t_without.Tables.action_entries t_with.Tables.action_entries
    (100.
    *. float_of_int
         (t_with.Tables.action_entries - t_without.Tables.action_entries)
    /. float_of_int t_without.Tables.action_entries);
  (* The paper's metric is how often the swaps "affected register
     allocation": compare the left-to-right register usage of each
     statement tree before and after the ordering phase.  (Swaps that
     only rearrange free operands change nothing.) *)
  let rec lr_usage (t : Tree.t) =
    match t with
    | Tree.Const _ | Tree.Fconst _ | Tree.Name _ | Tree.Temp _ | Tree.Dreg _
    | Tree.Autoinc _ | Tree.Autodec _ ->
      0
    | Tree.Indir (_, a) -> lr_usage a
    | Tree.Addr _ -> 1
    | Tree.Unop (_, _, e) | Tree.Conv (_, _, e) | Tree.Arg (_, e) ->
      max 1 (lr_usage e)
    | Tree.Binop (_, _, a, b)
    | Tree.Assign (_, a, b)
    | Tree.Rassign (_, a, b)
    | Tree.Cbranch (_, _, _, a, b, _) ->
      let held = if Phase1c.register_need a > 0 then 1 else 0 in
      max (max (lr_usage a) (lr_usage b + held)) 1
    | Tree.Call _ | Tree.Land _ | Tree.Lor _ | Tree.Lnot _ | Tree.Select _
    | Tree.Relval _ ->
      6
  in
  let prog = Lazy.force corpus_program in
  let stmts = ref 0 in
  let affected = ref 0 in
  let swaps = ref 0 in
  List.iter
    (fun (f : Tree.func) ->
      let stats = Phase1c.fresh_stats () in
      let ctx = Gg_transform.Context.create f in
      let body = Gg_transform.Phase1a.run ctx f.Tree.body in
      let body = Gg_transform.Phase1b.run body in
      let before =
        List.filter_map
          (function Tree.Stree t -> Some t | _ -> None)
          body
      in
      let after =
        List.filter_map
          (function Tree.Stree t -> Some t | _ -> None)
          (Phase1c.run ~spill_guard:false ~stats ctx body)
      in
      stmts := !stmts + List.length before;
      swaps :=
        !swaps + stats.Phase1c.swapped_reverse + stats.Phase1c.reversed_assigns;
      List.iter2
        (fun b a -> if lr_usage b <> lr_usage a then incr affected)
        before after)
    prog.Tree.funcs;
  row "statements rewritten with reverse forms: %d of %d (%.1f%%)@." !swaps
    !stmts
    (100. *. float_of_int !swaps /. float_of_int (max 1 !stmts));
  row
    "statements whose register usage changed: %d of %d (%.2f%%)   (paper: \
     <1%% of expressions)@."
    !affected !stmts
    (100. *. float_of_int !affected /. float_of_int (max 1 !stmts))

(* ============================================================================ *)
(* T-TBLC: table construction time (sections 7 and 9)                            *)
(* ============================================================================ *)

let bench_table_construction () =
  section
    "T-TBLC: table construction, naive vs improved (paper: >2 CPU hours -> \
     10 minutes, ~12x)";
  let subset =
    Grammar_def.grammar
      {
        Grammar_def.default with
        Grammar_def.int_types = [ Dtype.Long ];
        float_types = [];
      }
  in
  let full = Grammar_def.grammar Grammar_def.default in
  let time_once f =
    (* monotonic wall time, not CPU time: CPU time double-counts worker
       domains and would hide any -j speedup *)
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let t_naive, auto_naive = time_once (fun () -> Naive.build subset) in
  let t_fast_subset, auto_fast = time_once (fun () -> Lr0.build subset) in
  let t_fast_full, tables_full = time_once (fun () -> Tables.build full) in
  assert (
    auto_naive.Gg_tablegen.Automaton.n_states
    = auto_fast.Gg_tablegen.Automaton.n_states);
  row "subset grammar (long only, as in the paper's daily iterations; %d states):@."
    auto_naive.Gg_tablegen.Automaton.n_states;
  row "  naive constructor:     %8.3f s@." t_naive;
  row "  improved constructor:  %8.3f s@." t_fast_subset;
  row "  speedup:               %8.1fx   (paper: ~12x on the full grammar)@."
    (t_naive /. max 1e-6 t_fast_subset);
  row "full grammar, improved constructor + SLR tables: %.3f s (%d states)@."
    t_fast_full (Tables.n_states tables_full);
  (* the production path: ggcc never reconstructs a cached grammar's
     tables — it loads the packed file keyed by grammar digest *)
  let t_pack, packed = time_once (fun () -> Packed.pack tables_full) in
  let file = Filename.temp_file "ggcg-bench" ".tbl" in
  Packed.save packed file;
  let loads = if quick then 5 else 20 in
  let t_load_total, () =
    time_once (fun () ->
        for _ = 1 to loads do
          ignore (Packed.load full file)
        done)
  in
  Sys.remove file;
  let t_load = t_load_total /. float_of_int loads in
  row "packing the full tables:                         %.3f s@." t_pack;
  row "cached load of the packed tables:                %.4f s (avg of %d)@."
    t_load loads;
  row
    "  speedup vs optimised construction:             %8.1fx   (acceptance: \
     >= 10x)@."
    (t_fast_full /. max 1e-6 t_load)

(* ============================================================================ *)
(* T-MEM: table size and compression (sections 2, 6.4, 9)                        *)
(* ============================================================================ *)

let bench_table_size () =
  section
    "T-MEM: table size (the CGGWS \"produced tables that were too large\", \
     section 2)";
  let t = Tables.build (Grammar_def.grammar Grammar_def.default) in
  let packed = Gg_tablegen.Packed.pack t in
  let st = Gg_tablegen.Packed.stats packed in
  row "%a@." Gg_tablegen.Packed.pp_stats st;
  row
    "(default reductions + comb packing: the period answer to the paper's \
     table-size concern; the type-replicated description pays for itself in \
     table rows, which is why section 9 reconsiders \"our decision to type \
     operands syntactically\")@."

(* ============================================================================ *)
(* FIG2: phase profile                                                           *)
(* ============================================================================ *)

let bench_phase_profile () =
  section "FIG2: time share of the pattern-matching phase (paper: ~50%)";
  let prog = Lazy.force corpus_program in
  let tables = Lazy.force Driver.default_tables in
  let transformed = List.map (fun f -> Transform.run f) prog.Tree.funcs in
  let null_cb : unit Matcher.callbacks =
    {
      Matcher.on_shift = (fun _ -> ());
      on_reduce = (fun _ _ -> ());
      choose = (fun _ _ -> 0);
    }
  in
  let match_only () =
    List.iter
      (fun tr ->
        List.iter
          (fun s ->
            match s with
            | Tree.Stree t -> ignore (Matcher.run_tree_engine (Driver.engine tables) null_cb t)
            | _ -> ())
          tr.Transform.func.Tree.body)
      transformed
  in
  let results =
    measure_ns
      [
        ( "transform",
          fun () -> List.iter (fun f -> ignore (Transform.run f)) prog.Tree.funcs
        );
        ("match", match_only);
        ("full", fun () -> ignore (Driver.compile_program ~tables prog));
      ]
  in
  (match
     (lookup results "transform", lookup results "match", lookup results "full")
   with
  | Some tr, Some m, Some full ->
    row "phase 1 (transform):            %6.2f ms@." (tr /. 1e6);
    row "phase 2 (pattern match only):   %6.2f ms@." (m /. 1e6);
    row "full pipeline:                  %6.2f ms@." (full /. 1e6);
    row "pattern matching share of full: %.0f%%   (paper: ~50%%)@."
      (100. *. m /. full)
  | _ -> row "measurement failed@.");
  (* the same claim from the standing gg_profile instrumentation (what
     ggcc -profile prints), one instrumented corpus compile *)
  let snap =
    measured Telemetry.Timers (fun () ->
        ignore (Driver.compile_program ~tables prog);
        Telemetry.snapshot ())
  in
  let seconds name =
    List.fold_left
      (fun acc (n, s, _) -> if n = name then s else acc)
      0. snap.Telemetry.phases
  in
  let t_transform = seconds "phase1.transform" in
  let t_match = seconds "phase2.match" in
  row
    "instrumented (-profile): transform %.2f ms, match+emit %.2f ms -> \
     matching %.0f%% of the two phases@."
    (t_transform *. 1e3) (t_match *. 1e3)
    (100. *. t_match /. max 1e-9 (t_transform +. t_match));
  let c = snap.Telemetry.totals in
  row "  matcher counters: %d runs, %d shifts, %d reduces, %d semantic ties@."
    c.Telemetry.matcher_runs c.Telemetry.shifts c.Telemetry.reduces
    c.Telemetry.semantic_choices;
  (* where that matching time goes: the distribution over trees *)
  row "%a" Telemetry.pp_metrics snap

(* ============================================================================ *)
(* T-TIME: code generation speed, GG vs PCC (section 8)                         *)
(* ============================================================================ *)

let bench_codegen_time () =
  section
    "T-TIME: code generation time (paper section 8: 80.1s GG vs 55.4s PCC, \
     ratio 1.45)";
  let prog = Lazy.force corpus_program in
  let tables = Lazy.force Driver.default_tables in
  let results =
    measure_ns
      [
        ("ggbackend", fun () -> ignore (Driver.compile_program ~tables prog));
        ("pccbackend", fun () -> ignore (Pcc.compile_program prog));
      ]
  in
  match (lookup results "ggbackend", lookup results "pccbackend") with
  | Some gg, Some pcc ->
    row "table-driven backend:  %.2f ms/compile@." (gg /. 1e6);
    row "PCC-style backend:     %.2f ms/compile@." (pcc /. 1e6);
    row "ratio GG/PCC:          %.2f   (paper: 1.45, GG slower)@." (gg /. pcc)
  | _ -> row "measurement failed@."

(* ============================================================================ *)
(* T-SIZE: lines of assembly and code quality (section 8)                        *)
(* ============================================================================ *)

let bench_code_size () =
  section
    "T-SIZE: code size and quality (paper: 11385 GG vs 11309 PCC lines, \
     ratio 1.007)";
  let prog = Lazy.force corpus_program in
  let gg = Driver.compile_program prog in
  let pcc = Pcc.compile_program prog in
  let gl = Driver.total_lines gg and pl = Pcc.total_lines pcc in
  row "lines of assembly:  GG %d   PCC %d   ratio %.3f   (paper: 1.007)@." gl
    pl
    (float_of_int gl /. float_of_int pl);
  row "static cycles:      GG %d   PCC %d   ratio %.3f@."
    (Driver.total_cycles gg) (Pcc.total_cycles pcc)
    (float_of_int (Driver.total_cycles gg)
    /. float_of_int (Pcc.total_cycles pcc));
  row "dynamic cycles (simulator), fixed benchmark programs:@.";
  let total_gg = ref 0 and total_pcc = ref 0 in
  List.iter
    (fun (name, prog) ->
      let run asm =
        (Machine.run_text ~max_steps:40_000_000 asm
           ~global_types:prog.Tree.globals ~entry:"main" [])
          .Machine.cycles
      in
      let cg = run (Driver.compile_program prog).Driver.assembly in
      let cp = run (Pcc.compile_program prog).Pcc.assembly in
      total_gg := !total_gg + cg;
      total_pcc := !total_pcc + cp;
      row "  %-12s GG %7d   PCC %7d   ratio %.3f@." name cg cp
        (float_of_int cg /. float_of_int cp))
    (Lazy.force fixed_progs);
  row
    "  %-12s GG %7d   PCC %7d   ratio %.3f   (paper: GG as good or better in \
     almost all cases)@."
    "TOTAL" !total_gg !total_pcc
    (float_of_int !total_gg /. float_of_int !total_pcc)

(* ============================================================================ *)
(* FIG3: instruction table and idiom recognition                                 *)
(* ============================================================================ *)

let bench_idioms () =
  section "FIG3: idiom recognition (paper Fig. 3 and section 5.3.2)";
  let nm s = Tree.Name (Dtype.Long, s) in
  let c n = Tree.Const (Dtype.Long, n) in
  let show label tree =
    let asm =
      Driver.compile_tree tree
      |> List.map (fun i -> String.trim (Insn.assembly i))
      |> String.concat "; "
    in
    row "  %-24s ->  %s@." label asm
  in
  show "a = 17 + b"
    (Tree.Assign (Dtype.Long, nm "a", Tree.Binop (Op.Plus, Dtype.Long, c 17L, nm "b")));
  show "a = a + 17"
    (Tree.Assign (Dtype.Long, nm "a", Tree.Binop (Op.Plus, Dtype.Long, nm "a", c 17L)));
  show "a = a + 1"
    (Tree.Assign (Dtype.Long, nm "a", Tree.Binop (Op.Plus, Dtype.Long, nm "a", c 1L)));
  show "a = 0" (Tree.Assign (Dtype.Long, nm "a", c 0L));
  (* most idioms exchange a 3-operand for a 2-operand instruction, so
     the honest metric is operand/cycle cost, not line count *)
  let prog = Lazy.force corpus_program in
  let noidioms = { Driver.default_options with Driver.idioms = false } in
  let with_i = Driver.compile_program prog in
  let without_i = Driver.compile_program ~options:noidioms prog in
  row "corpus static cycles with idioms:    %d (%d lines)@."
    (Driver.total_cycles with_i) (Driver.total_lines with_i);
  row
    "corpus static cycles without idioms: %d (%d lines, +%.1f%% cycles; \
     still correct, as the paper notes)@."
    (Driver.total_cycles without_i)
    (Driver.total_lines without_i)
    (100.
    *. float_of_int (Driver.total_cycles without_i - Driver.total_cycles with_i)
    /. float_of_int (Driver.total_cycles with_i));
  let dyn options (name, prog) =
    let asm = (Driver.compile_program ~options prog).Driver.assembly in
    ignore name;
    (Machine.run_text ~max_steps:40_000_000 asm
       ~global_types:prog.Tree.globals ~entry:"main" [])
      .Machine.cycles
  in
  let fixed = Lazy.force fixed_progs in
  let d_with =
    List.fold_left (fun a p -> a + dyn Driver.default_options p) 0 fixed
  in
  let d_without = List.fold_left (fun a p -> a + dyn noidioms p) 0 fixed in
  row "fixed programs dynamic cycles: %d with idioms, %d without (+%.1f%%)@."
    d_with d_without
    (100. *. float_of_int (d_without - d_with) /. float_of_int d_with);
  (* how often the recogniser fires: count the short instruction forms *)
  let short_forms out =
    List.fold_left
      (fun acc (cf : Driver.compiled_func) ->
        List.fold_left
          (fun acc i ->
            match i with
            | Insn.Insn (m, _) ->
              let n = String.length m in
              let is p = n > String.length p && String.sub m 0 (String.length p) = p in
              if
                (n > 0 && m.[n - 1] = '2')
                || is "inc" || is "dec" || is "clr" || is "tst"
              then acc + 1
              else acc
            | _ -> acc)
          acc cf.Driver.cf_insns)
      0 out.Driver.funcs
  in
  row "short forms chosen by the idiom recogniser: %d of %d instructions \
       (vs %d without idioms)@."
    (short_forms with_i)
    (Driver.total_lines with_i)
    (short_forms without_i)

(* ============================================================================ *)
(* PEEP: the peephole alternative (section 6.1)                                   *)
(* ============================================================================ *)

let bench_peephole () =
  section
    "PEEP: pairing the code generators with a peephole optimizer (section \
     6.1's alternative organisation)";
  let fixed = Lazy.force fixed_progs in
  let dyn asm (prog : Tree.program) =
    (Machine.run_text ~max_steps:40_000_000 asm
       ~global_types:prog.Tree.globals ~entry:"main" [])
      .Machine.cycles
  in
  let totals = ref (0, 0, 0, 0) in
  List.iter
    (fun (_, prog) ->
      let gg = dyn (Driver.compile_program prog).Driver.assembly prog in
      let gg_p =
        dyn
          (Driver.compile_program
             ~options:{ Driver.default_options with Driver.peephole = true }
             prog)
            .Driver.assembly prog
      in
      let pcc = dyn (Pcc.compile_program prog).Pcc.assembly prog in
      let pcc_p = dyn (Pcc.compile_program ~peephole:true prog).Pcc.assembly prog in
      let a, b, c, d = !totals in
      totals := (a + gg, b + gg_p, c + pcc, d + pcc_p))
    fixed;
  let gg, gg_p, pcc, pcc_p = !totals in
  row "dynamic cycles over the fixed programs:@.";
  row "  table-driven:  %7d -> %7d with peephole (-%.1f%%)@." gg gg_p
    (100. *. float_of_int (gg - gg_p) /. float_of_int gg);
  row "  PCC-style:     %7d -> %7d with peephole (-%.1f%%)@." pcc pcc_p
    (100. *. float_of_int (pcc - pcc_p) /. float_of_int pcc);
  row
    "(the table-driven backend already avoids redundant tests via the \
     condition-code patterns of section 6.1, so the peephole finds less)@."

(* ============================================================================ *)
(* COV: production coverage of the corpus                                         *)
(* ============================================================================ *)

let bench_coverage () =
  section "COV: grammar production coverage (completeness check)";
  let tables = Lazy.force Driver.default_tables in
  let g = Driver.grammar tables in
  let used = Array.make (Grammar.n_productions g) false in
  let null_cb : unit Matcher.callbacks =
    {
      Matcher.on_shift = (fun _ -> ());
      on_reduce = (fun p _ -> used.(p.Grammar.id) <- true);
      choose = (fun _ _ -> 0);
    }
  in
  let feed prog =
    List.iter
      (fun (f : Tree.func) ->
        let tr = Transform.run f in
        List.iter
          (fun s ->
            match s with
            | Tree.Stree t -> ignore (Matcher.run_tree_engine (Driver.engine tables) null_cb t)
            | _ -> ())
          tr.Transform.func.Tree.body)
      prog.Tree.funcs
  in
  feed (Lazy.force corpus_program);
  List.iter (fun (_, p) -> feed p) (Lazy.force fixed_progs);
  for seed = 1 to 30 do
    feed
      (Sema.lower_program
         (Corpus.program ~seed ~functions:3 ~stmts_per_function:10))
  done;
  (* the typed-tree corpus reaches the byte/word/float and conversion
     productions C's promotion rules bypass *)
  for seed = 1 to 60 do
    feed (Gg_ir.Treegen.program ~seed ~stmts:30)
  done;
  let n_used = Array.fold_left (fun a b -> if b then a + 1 else a) 0 used in
  row "productions exercised by the corpus: %d of %d (%.0f%%)@." n_used
    (Grammar.n_productions g)
    (100. *. float_of_int n_used /. float_of_int (Grammar.n_productions g));
  let unused =
    List.filteri (fun i _ -> not used.(i))
      (List.init (Grammar.n_productions g) (Grammar.production g))
  in
  row "a sample of unexercised productions (dead weight or rare shapes):@.";
  List.iteri
    (fun i p ->
      if i < 8 then row "  %a@." (Grammar.pp_production g) p)
    unused

(* ============================================================================ *)
(* APPX: the Appendix shift/reduce trace                                          *)
(* ============================================================================ *)

let bench_appendix () =
  section "APPX: shift/reduce actions for the Appendix example (a := 27 + b)";
  let tree =
    Tree.Assign
      ( Dtype.Long,
        Tree.Name (Dtype.Long, "a"),
        Tree.Binop
          ( Op.Plus, Dtype.Long,
            Tree.Const (Dtype.Byte, 27L),
            Tree.Conv
              ( Dtype.Long, Dtype.Byte,
                Tree.Indir
                  ( Dtype.Byte,
                    Tree.Binop (Op.Plus, Dtype.Long,
                                Tree.Const (Dtype.Long, -4L),
                                Tree.Dreg (Dtype.Long, Regconv.fp)) ) ) ) )
  in
  let insns, trace = Driver.compile_tree_traced tree in
  let g = Driver.grammar (Lazy.force Driver.default_tables) in
  Fmt.pr "%a@." (Matcher.pp_trace g) trace;
  row "emitted code:@.";
  List.iter (fun i -> row "%s@." (Insn.assembly i)) insns

(* ============================================================================ *)
(* THRU: matcher hot-loop and multi-domain batch throughput                     *)
(* ============================================================================ *)

let bench_throughput () =
  section
    (Fmt.str
       "THRU: second-pass throughput, %s target (paper section 8: the \
        table-driven pass ran 1.45x slower than PCC; section 9 calls the gap \
        engineering)"
       (Targets.name bench_target));
  let prog = Lazy.force corpus_program in
  let transformed = List.map (fun f -> Transform.run f) prog.Tree.funcs in
  let n_stmts =
    List.fold_left
      (fun acc tr -> acc + List.length tr.Transform.func.Tree.body)
      0 transformed
  in
  (* linearise once up front: the single-thread measurement targets the
     shift/reduce loop itself *)
  let token_lists =
    List.concat_map
      (fun tr ->
        List.filter_map
          (function Tree.Stree t -> Some (Termname.linearize t) | _ -> None)
          tr.Transform.func.Tree.body)
      transformed
  in
  let n_trees = List.length token_lists in
  let packed_tables = Targets.default_tables bench_target in
  let packed = Driver.engine packed_tables in
  let null_cb : unit Matcher.callbacks =
    {
      Matcher.on_shift = (fun _ -> ());
      on_reduce = (fun _ _ -> ());
      choose = (fun _ _ -> 0);
    }
  in
  let results =
    measure_ns_best
      ~repeats:(if quick then 1 else 3)
      [
        ( "m-interned",
          fun () ->
            List.iter
              (fun toks -> ignore (Matcher.run_engine packed null_cb toks))
              token_lists );
      ]
  in
  let rate ns = float_of_int n_trees *. 1e9 /. ns in
  let srate ns = float_of_int n_stmts *. 1e9 /. ns in
  (* the pre-optimisation reference loop's rows (dense and packed, list
     stack, symtab lookup per action) are historical: EXPERIMENTS.md *)
  let single =
    match lookup results "m-interned" with
    | Some i ->
      row "corpus: %d functions, %d statements, %d matched trees@."
        (List.length prog.Tree.funcs)
        n_stmts n_trees;
      row "  packed + interned (prod.):  %9.0f trees/s  %9.0f stmts/s@."
        (rate i) (srate i);
      Some i
    | None ->
      row "measurement failed@.";
      None
  in
  (* the root cause of the old negative scaling, kept as a standing
     measurement: one Domain.spawn+join round trip, which the first
     Parallel.map paid per worker per batch *)
  let spawn_us =
    let reps = if quick then 5 else 20 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      Domain.join (Domain.spawn (fun () -> ()))
    done;
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int reps
  in
  row "Domain.spawn+join round trip: %.0f us@." spawn_us;
  let jlist = [ 1; 2; 4; 8 ] in
  (* byte-identity is asserted through real multi-domain batches
     (oversubscribed past the clamp), so it holds on any host *)
  let asm j =
    (Driver.compile_program ~tables:packed_tables ~jobs:j ~oversubscribe:true prog)
      .Driver.assembly
  in
  let identical = asm 1 = asm 4 && asm 1 = asm 8 in
  row "-j determinism: 4- and 8-domain assembly byte-identical to 1: %b@."
    identical;
  let measure_jobs ~oversubscribe =
    let jresults =
      (* best-of-N: the first test of a single pass absorbs heap growth
         and page-fault warmup, which would charge -j1 (measured first)
         several times its steady-state cost *)
      measure_ns_best
        ~repeats:(if quick then 2 else 3)
        (List.map
           (fun j ->
             ( Fmt.str "batch-j%d" j,
               fun () ->
                 ignore
                   (Driver.compile_program ~tables:packed_tables ~jobs:j ~oversubscribe
                      prog) ))
           jlist)
    in
    List.filter_map
      (fun j ->
        Option.map (fun ns -> (j, ns)) (lookup jresults (Fmt.str "batch-j%d" j)))
      jlist
  in
  (* the production path: the persistent pool, clamped to the host's
     cores — what `ggcc -j N` actually runs.  Shut the pool down first:
     the determinism check above parked oversubscribed workers, and on
     a small host their stop-the-world participation would tax the
     clamped (possibly sequential) runs being measured *)
  Parallel.shutdown ();
  let scaling = measure_jobs ~oversubscribe:false in
  let ns1 = List.assoc_opt 1 scaling in
  let speedup ns1 ns = match ns1 with Some n1 -> n1 /. ns | None -> nan in
  row
    "batch compile of the corpus (%d functions, recommended domains: %d, \
     effective -j clamped to the core count):@."
    (List.length prog.Tree.funcs)
    (Gg_codegen.Parallel.available ());
  List.iter
    (fun (j, ns) ->
      row "  -j %d:  %8.2f ms/compile   speedup %.2fx@." j (ns /. 1e6)
        (speedup ns1 ns))
    scaling;
  (* the same batches forced through real domains past the clamp: on a
     multi-core host this matches the clamped curve; on a small host it
     prices the pure pool overhead (condvar handoff + stop-the-world
     GC across domains) that the clamp avoids paying *)
  Parallel.shutdown ();
  let pool_scaling = measure_jobs ~oversubscribe:true in
  let pool_ns1 = List.assoc_opt 1 pool_scaling in
  row "same batches, forced multi-domain (pool overhead measurement):@.";
  List.iter
    (fun (j, ns) ->
      row "  -j %d:  %8.2f ms/compile   speedup %.2fx@." j (ns /. 1e6)
        (speedup pool_ns1 ns))
    pool_scaling;
  (* persist the trajectory *)
  let oc = open_out "BENCH_throughput.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"quick\": %b,\n" quick;
  p "  \"corpus\": { \"functions\": %d, \"statements\": %d, \"trees\": %d },\n"
    (List.length prog.Tree.funcs)
    n_stmts n_trees;
  (match single with
  | Some i ->
    p "  \"single_thread\": {\n";
    p
      "    \"packed_interned\": { \"trees_per_sec\": %.0f, \
       \"stmts_per_sec\": %.0f }\n"
      (rate i) (srate i);
    p "  },\n"
  | None -> ());
  p "  \"parallel\": {\n";
  p "    \"recommended_domains\": %d,\n" (Gg_codegen.Parallel.available ());
  p "    \"domain_spawn_us\": %.1f,\n" spawn_us;
  p "    \"assembly_identical_j1_j4_j8\": %b,\n" identical;
  let scaling_rows key rows n1 last =
    p "    \"%s\": [\n" key;
    List.iteri
      (fun k (j, ns) ->
        p
          "      { \"jobs\": %d, \"ms_per_compile\": %.3f, \"speedup_vs_j1\": \
           %.3f }%s\n"
          j (ns /. 1e6) (speedup n1 ns)
          (if k = List.length rows - 1 then "" else ","))
      rows;
    p "    ]%s\n" (if last then "" else ",")
  in
  (* "scaling" is the production path (persistent pool, clamped to the
     core count); "pool_scaling" forces real domains past the clamp *)
  scaling_rows "scaling" scaling ns1 false;
  scaling_rows "pool_scaling" pool_scaling pool_ns1 true;
  p "  }\n";
  p "}\n";
  close_out oc;
  row "written: BENCH_throughput.json@."

(* ============================================================================ *)
(* SERVE: warm compile server vs per-process compilation                        *)
(* ============================================================================ *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float ((q *. float_of_int (n - 1)) +. 0.5)))

(* -- open-loop load generation ------------------------------------------------ *)

(* per-request outcome codes for the open-loop run *)
let oc_ok = 0 (* assembly received *)
let oc_injected = 1 (* fail-injected request answered Error Internal *)
let oc_gave_up = 2 (* Retry_after retries exhausted *)
let oc_other = 3 (* anything else: a correctness problem *)

(* Arrivals follow a fixed schedule regardless of completions — the
   defining property of an open-loop generator: when the server falls
   behind, latency (not the offered rate) absorbs the lag, which is
   what N independent build jobs pointed at one daemon look like.  Each
   arrival is its own client thread (hundreds of concurrent clients at
   the tail), [burst] arrivals land at t=0 — more than the admission
   queue holds, so the Retry_after path is exercised deterministically
   — and every [fail_every]-th request carries fail-injection. *)
let open_loop ~socket ~requests ~burst ~rate_rps ~fail_every srcs =
  let retry_events = Atomic.make 0 in
  let in_flight = Atomic.make 0 in
  let max_in_flight = Atomic.make 0 in
  let lat_ms = Array.make requests nan in
  let outcome = Array.make requests oc_other in
  let one k =
    let injected = fail_every > 0 && k mod fail_every = fail_every - 1 in
    let src = srcs.(k mod Array.length srcs) in
    let req = Protocol.request ~fail_inject:injected src in
    let v = 1 + Atomic.fetch_and_add in_flight 1 in
    let rec bump () =
      let m = Atomic.get max_in_flight in
      if v > m && not (Atomic.compare_and_set max_in_flight m v) then bump ()
    in
    bump ();
    let t = Unix.gettimeofday () in
    let code =
      match
        Client.compile ~retries:8
          ~on_retry:(fun ~attempt:_ ~wait_ms:_ -> Atomic.incr retry_events)
          ~socket req
      with
      | Protocol.Asm _ -> if injected then oc_other else oc_ok
      | Protocol.Error (Protocol.Internal, _) ->
        if injected then oc_injected else oc_other
      | _ -> oc_other
      | exception Client.Server_error _ -> oc_gave_up
    in
    lat_ms.(k) <- (Unix.gettimeofday () -. t) *. 1e3;
    outcome.(k) <- code;
    ignore (Atomic.fetch_and_add in_flight (-1))
  in
  let threads = Array.make requests None in
  let t0 = Unix.gettimeofday () in
  for k = 0 to requests - 1 do
    if k >= burst then begin
      (* pace the post-burst arrivals; never wait for completions *)
      let due = t0 +. (float_of_int (k - burst) /. rate_rps) in
      let now = Unix.gettimeofday () in
      if due > now then Unix.sleepf (due -. now)
    end;
    threads.(k) <- Some (Thread.create one k)
  done;
  Array.iter (Option.iter Thread.join) threads;
  let wall = Unix.gettimeofday () -. t0 in
  ( lat_ms,
    outcome,
    wall,
    Atomic.get retry_events,
    Atomic.get max_in_flight )

let bench_serve () =
  section
    "SERVE: warm compile server vs per-process compilation (the paper's \
     table-reuse argument, amortised across processes)";
  (* the request corpus: examples/c when run from the repo root, else
     the built-in fixed programs *)
  let sources =
    match example_sources () with
    | [] -> List.map (fun (n, s) -> (n ^ ".c", s)) Corpus.fixed_programs
    | files -> files
  in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "ggccd-bench-%d.sock" (Unix.getpid ()))
  in
  let tables = Driver.cached_tables Driver.default_options.Driver.grammar in
  let workers = (Server.default_config ~socket_path:socket).Server.workers in
  let config =
    { (Server.default_config ~socket_path:socket) with Server.workers }
  in
  let server = Server.start ~config ~tables:(fun _ -> tables) () in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  (* correctness before speed: every served answer must be the bytes a
     direct compile produces *)
  let parity =
    List.for_all
      (fun (_, src) ->
        match Client.compile ~socket (Protocol.request src) with
        | Protocol.Asm asm ->
          asm
          = (Driver.compile_program ~tables (Sema.compile src)).Driver.assembly
        | _ -> false)
      sources
  in
  row "served output byte-identical to direct compilation: %b@." parity;
  let clients = 4 in
  let per_client = if quick then 25 else 150 in
  let srcs = Array.of_list (List.map snd sources) in
  (* closed-loop measurement, reused to price the ops plane below *)
  let closed_loop socket =
    let lats = Array.init clients (fun _ -> Array.make per_client 0.) in
    let t0 = Unix.gettimeofday () in
    let pool =
      Parallel.spawn_pool ~domains:clients (fun c ->
          for k = 0 to per_client - 1 do
            let src = srcs.((c + (k * clients)) mod Array.length srcs) in
            let t = Unix.gettimeofday () in
            (match Client.compile ~socket (Protocol.request src) with
            | Protocol.Asm _ -> ()
            | r ->
              ignore r;
              failwith "serve bench: unexpected response");
            lats.(c).(k) <- Unix.gettimeofday () -. t
          done)
    in
    Parallel.join_pool pool;
    let wall = Unix.gettimeofday () -. t0 in
    let all = Array.concat (Array.to_list lats) in
    Array.sort compare all;
    let n = Array.length all in
    ( n,
      wall,
      float_of_int n /. wall,
      percentile all 0.50 *. 1e3,
      percentile all 0.99 *. 1e3 )
  in
  (* -- the price of the ops plane: the same closed loop against a
     second server running full observability — info-level JSON logs to
     a file, the flight recorder, metrics histograms and slow-request
     detection.  The acceptance gate is < 3% throughput overhead.

     Measurement discipline: one discarded warm-up pass per server
     (domain ramp-up and allocator warm-up would otherwise masquerade
     as ops-plane overhead), then five measured passes per server,
     INTERLEAVED plain/observed.  Back-to-back blocks would hand
     whatever the machine does later — CPU-quota throttling, background
     load — entirely to the second configuration; alternating passes
     spreads drift across both, and the overhead is computed from the
     paired TOTALS (sum of wall times), which averages noise that a
     best-of or single-pass comparison amplifies.  The telemetry level
     is global, so it is set around each pass: off for the plain
     server, the daemon's own level (timers) for the observed one. *)
  let obs_socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "ggccd-bench-obs-%d.sock" (Unix.getpid ()))
  in
  let obs_log = Filename.temp_file "ggcg-bench-obs" ".log" in
  let obs_log_oc = open_out obs_log in
  let obs_config =
    {
      (Server.default_config ~socket_path:obs_socket) with
      Server.workers;
      logger = Slog.to_channel ~level:Slog.Info obs_log_oc;
      slow_ms = 500;
      flight_capacity = 64;
    }
  in
  let plain_pass () = Telemetry.with_level Off (fun () -> closed_loop socket) in
  let obs_server = Server.start ~config:obs_config ~tables:(fun _ -> tables) () in
  let obs_pass () =
    Telemetry.with_level Timers (fun () -> closed_loop obs_socket)
  in
  let best passes =
    List.fold_left
      (fun ((_, _, best_rps, _, _) as best) ((_, _, rps, _, _) as pass) ->
        if rps > best_rps then pass else best)
      (List.hd passes) (List.tl passes)
  in
  let plain_passes, obs_passes =
    Fun.protect ~finally:(fun () ->
        Server.stop obs_server;
        close_out obs_log_oc;
        Sys.remove obs_log)
    @@ fun () ->
    ignore (plain_pass ());
    ignore (obs_pass ());
    let pairs = List.init 5 (fun _ -> (plain_pass (), obs_pass ())) in
    (List.map fst pairs, List.map snd pairs)
  in
  let total passes =
    List.fold_left
      (fun (n, wall) (pn, pwall, _, _, _) -> (n + pn, wall +. pwall))
      (0, 0.) passes
  in
  let n_server, wall_server, rps_server, p50_server, p99_server =
    best plain_passes
  in
  row
    "warm server (%d workers, %d client domains): %d requests in %.2f s = \
     %.0f requests/s,  p50 %.2f ms  p99 %.2f ms@."
    workers clients n_server wall_server rps_server p50_server p99_server;
  let n_obs, wall_obs, rps_obs, p50_obs, p99_obs = best obs_passes in
  let obs_overhead_pct =
    let n_plain, wall_plain = total plain_passes in
    let n_obs_t, wall_obs_t = total obs_passes in
    let rps_plain_t = float_of_int n_plain /. wall_plain in
    let rps_obs_t = float_of_int n_obs_t /. wall_obs_t in
    (rps_plain_t -. rps_obs_t) /. rps_plain_t *. 100.
  in
  row
    "ops plane on (JSON logs + flight recorder + metrics): %d requests in \
     %.2f s = %.0f requests/s,  p50 %.2f ms  p99 %.2f ms@."
    n_obs wall_obs rps_obs p50_obs p99_obs;
  row "observability overhead: %.1f%% of throughput   (acceptance: < 3%%)@."
    obs_overhead_pct;
  (* baseline: what a build system does without the daemon — one ggcc
     process per compile, each paying process start + table load from
     the (warm) cache *)
  let ggcc =
    let near =
      Filename.concat
        (Filename.dirname Sys.executable_name)
        (Filename.concat ".." (Filename.concat "bin" "ggcc.exe"))
    in
    if Sys.file_exists near then near else "ggcc"
  in
  let files =
    List.map
      (fun (name, src) ->
        if Sys.file_exists name then name
        else begin
          let f =
            Filename.temp_file "ggcg-serve"
              ("-" ^ Filename.basename name)
          in
          let oc = open_out f in
          output_string oc src;
          close_out oc;
          f
        end)
      sources
    |> Array.of_list
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let run_one file =
    let pid =
      Unix.create_process ggcc
        [| ggcc; "compile"; file |]
        Unix.stdin null Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith ("serve bench: " ^ ggcc ^ " failed on " ^ file)
  in
  let n_proc = if quick then 12 else 60 in
  let proc_lats = Array.make n_proc 0. in
  let t0 = Unix.gettimeofday () in
  for k = 0 to n_proc - 1 do
    let t = Unix.gettimeofday () in
    run_one files.(k mod Array.length files);
    proc_lats.(k) <- Unix.gettimeofday () -. t
  done;
  let wall_proc = Unix.gettimeofday () -. t0 in
  Unix.close null;
  Array.sort compare proc_lats;
  let rps_proc = float_of_int n_proc /. wall_proc in
  let p50_proc = percentile proc_lats 0.50 *. 1e3 in
  let p99_proc = percentile proc_lats 0.99 *. 1e3 in
  row
    "per-process ggcc (warm table cache):          %d compiles in %.2f s = \
     %.0f requests/s,  p50 %.2f ms  p99 %.2f ms@."
    n_proc wall_proc rps_proc p50_proc p99_proc;
  row "warm-server throughput vs per-process: %.1fx   (acceptance: > 1x)@."
    (rps_server /. rps_proc);
  (* -- open-loop worker sweep: the daemon under real load ------------------ *)
  let sweep_workers = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let requests = if quick then 150 else 400 in
  let burst = 64 in
  let rate = if quick then 150. else 300. in
  let fail_every = 37 in
  let queue_capacity = 16 in
  let p99_slo_ms = 250. in
  (* mixed request sizes: one-function snippets up to multi-KB programs *)
  let mixed_srcs =
    Array.of_list
      (List.concat_map
         (fun seed ->
           [
             Corpus.random_source ~seed ~functions:1 ~stmts_per_function:3;
             Corpus.random_source ~seed:(seed + 100) ~functions:3
               ~stmts_per_function:10;
             Corpus.random_source ~seed:(seed + 200) ~functions:6
               ~stmts_per_function:25;
           ])
         [ 1; 2; 3; 4 ])
  in
  let src_bytes = Array.map String.length mixed_srcs in
  let min_b = Array.fold_left min max_int src_bytes in
  let max_b = Array.fold_left max 0 src_bytes in
  row
    "open-loop sweep: %d requests per point (burst %d then %.0f req/s), \
     request sizes %d..%d B, fail-injection every %d, queue capacity %d:@."
    requests burst rate min_b max_b fail_every queue_capacity;
  let sweep =
    List.map
      (fun w ->
        let socket =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Fmt.str "ggccd-sweep-%d-w%d.sock" (Unix.getpid ()) w)
        in
        let config =
          {
            (Server.default_config ~socket_path:socket) with
            Server.workers = w;
            queue_capacity;
          }
        in
        let server = Server.start ~config ~tables:(fun _ -> tables) () in
        Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
        let lat, out, wall, retry_events, max_in_flight =
          open_loop ~socket ~requests ~burst ~rate_rps:rate ~fail_every
            mixed_srcs
        in
        let count c =
          Array.fold_left
            (fun acc o -> if o = c then acc + 1 else acc)
            0 out
        in
        let n_ok = count oc_ok in
        let n_injected = count oc_injected in
        let n_gave_up = count oc_gave_up in
        let n_other = count oc_other in
        let completed =
          Array.of_list
            (List.filteri
               (fun k _ -> out.(k) = oc_ok || out.(k) = oc_injected)
               (Array.to_list lat))
        in
        Array.sort compare completed;
        let p50 = percentile completed 0.50 in
        let p99 = percentile completed 0.99 in
        let achieved = float_of_int (n_ok + n_injected) /. wall in
        row
          "  workers %d: %d ok + %d injected errors, %d gave up, %d \
           unexpected; %d retry-after events, max %d in flight; %.0f req/s \
           achieved, p50 %.2f ms p99 %.2f ms%s@."
          w n_ok n_injected n_gave_up n_other retry_events max_in_flight
          achieved p50 p99
          (if p99 <= p99_slo_ms then "" else "  (p99 SLO MISSED)");
        (w, n_ok, n_injected, n_gave_up, n_other, retry_events, max_in_flight,
         wall, achieved, p50, p99))
      sweep_workers
  in
  let oc = open_out "BENCH_serve.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"quick\": %b,\n" quick;
  p "  \"sources\": %d,\n" (List.length sources);
  p "  \"parity_with_direct_compile\": %b,\n" parity;
  p "  \"closed_loop\": {\n";
  p "    \"workers\": %d,\n" workers;
  p "    \"client_domains\": %d,\n" clients;
  p "    \"requests\": %d,\n" n_server;
  p "    \"wall_s\": %.3f,\n" wall_server;
  p "    \"requests_per_sec\": %.1f,\n" rps_server;
  p "    \"p50_ms\": %.3f,\n" p50_server;
  p "    \"p99_ms\": %.3f\n" p99_server;
  p "  },\n";
  p "  \"per_process\": {\n";
  p "    \"requests\": %d,\n" n_proc;
  p "    \"wall_s\": %.3f,\n" wall_proc;
  p "    \"requests_per_sec\": %.1f,\n" rps_proc;
  p "    \"p50_ms\": %.3f,\n" p50_proc;
  p "    \"p99_ms\": %.3f\n" p99_proc;
  p "  },\n";
  p "  \"throughput_ratio\": %.2f,\n" (rps_server /. rps_proc);
  p "  \"observability\": {\n";
  p "    \"requests\": %d,\n" n_obs;
  p "    \"wall_s\": %.3f,\n" wall_obs;
  p "    \"requests_per_sec\": %.1f,\n" rps_obs;
  p "    \"p50_ms\": %.3f,\n" p50_obs;
  p "    \"p99_ms\": %.3f,\n" p99_obs;
  p "    \"overhead_pct_vs_closed_loop\": %.2f,\n" obs_overhead_pct;
  p "    \"overhead_target_pct\": 3.0\n";
  p "  },\n";
  p "  \"open_loop\": {\n";
  p "    \"requests_per_point\": %d,\n" requests;
  p "    \"burst\": %d,\n" burst;
  p "    \"offered_rps_after_burst\": %.0f,\n" rate;
  p "    \"queue_capacity\": %d,\n" queue_capacity;
  p "    \"fail_injected_every\": %d,\n" fail_every;
  p "    \"request_bytes\": { \"min\": %d, \"max\": %d },\n" min_b max_b;
  p "    \"p99_slo_ms\": %.0f,\n" p99_slo_ms;
  p "    \"sweep\": [\n";
  List.iteri
    (fun k
         (w, n_ok, n_injected, n_gave_up, n_other, retry_events, max_in_flight,
          wall, achieved, p50, p99) ->
      p
        "      { \"workers\": %d, \"completed_ok\": %d, \
         \"fail_injected_errors\": %d, \"gave_up\": %d, \"unexpected\": %d, \
         \"retry_after_events\": %d, \"max_in_flight\": %d, \"wall_s\": \
         %.3f, \"achieved_rps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \
         \"p99_slo_met\": %b }%s\n"
        w n_ok n_injected n_gave_up n_other retry_events max_in_flight wall
        achieved p50 p99
        (p99 <= p99_slo_ms)
        (if k = List.length sweep - 1 then "" else ","))
    sweep;
  p "    ]\n";
  p "  }\n";
  p "}\n";
  close_out oc;
  row "written: BENCH_serve.json@."

(* ============================================================================ *)
(* RETARGET: the second machine description, measured against the first        *)
(* ============================================================================ *)

let bench_retarget () =
  section
    "RETARGET: second backend (the paper's thesis is that the machine \
     description is the only target-specific artifact)";
  (* the description's own footprint: grammar and table statistics per
     target, built by the same constructor *)
  List.iter
    (fun target ->
      let b = Targets.backend_of target in
      let g = Lazy.force b.Backend.default_grammar in
      let gs = Grammar.stats g in
      let ts = Tables.stats (Tables.build g) in
      row
        "%-5s %4d productions  %3d terminals  %3d non-terminals  %4d states@."
        (Targets.name target) gs.Grammar.productions gs.Grammar.terminals
        gs.Grammar.nonterminals ts.Tables.states)
    Targets.all;
  (* full-pipeline compile time over the same corpus, per target: the
     driver is shared, so the gap is the description's own doing *)
  let prog = Lazy.force corpus_program in
  let results =
    measure_ns_best
      ~repeats:(if quick then 1 else 3)
      (List.map
         (fun target ->
           let tables = Targets.default_tables target in
           ( "c-" ^ Targets.name target,
             fun () -> ignore (Driver.compile_program ~tables prog) ))
         Targets.all)
  in
  (match (lookup results "c-vax", lookup results "c-risc") with
  | Some v, Some r ->
    row "corpus compile: vax %.1f ms, risc %.1f ms (risc/vax %.2fx)@."
      (v /. 1e6) (r /. 1e6) (r /. v)
  | _ -> row "measurement failed@.");
  (* static and dynamic cost of the generated code on the fixed corpus,
     with every program executed under its target's simulator *)
  List.iter
    (fun target ->
      let tables = Targets.default_tables target in
      let bytes, insns, cycles =
        List.fold_left
          (fun (b, i, c) (_, p) ->
            let out = Driver.compile_program ~tables p in
            let sim =
              Targets.run_text ~target out.Driver.assembly
                ~global_types:p.Tree.globals ~entry:"main" []
            in
            ( b + String.length out.Driver.assembly,
              i + sim.Simout.insns_executed,
              c + sim.Simout.cycles ))
          (0, 0, 0) (Lazy.force fixed_progs)
      in
      row "%-5s fixed corpus: %6d asm bytes  %6d insns executed  %7d cycles@."
        (Targets.name target) bytes insns cycles)
    Targets.all

(* ============================================================================ *)
(* REGALLOC: graph coloring vs the stack discipline, cycle-model judged        *)
(* ============================================================================ *)

let bench_regalloc () =
  section
    "REGALLOC: graph-coloring allocation vs the paper's on-the-fly stack \
     discipline, judged by each target's cycle model";
  (* the judged corpus: examples/c when run from the repo root, else
     the built-in fixed programs *)
  let sources =
    match example_sources () with
    | [] -> Corpus.fixed_programs
    | files ->
      List.map
        (fun (file, s) ->
          (Filename.remove_extension (Filename.basename file), s))
        files
  in
  let progs = List.map (fun (n, s) -> (n, Sema.compile s)) sources in
  let counter counters name =
    Option.value (List.assoc_opt name counters) ~default:0
  in
  (* per (target, allocator): total simulated cycles across the corpus,
     spill/reload counts from the metrics registry, and allocation-
     inclusive compile wall time *)
  let measure target regalloc =
    let tables = Targets.default_tables target in
    let options = { Driver.default_options with Driver.regalloc } in
    let outs, compile_s, counters =
      measured Counters (fun () ->
          let t0 = Unix.gettimeofday () in
          let outs =
            List.map
              (fun (n, p) -> (n, Driver.compile_program ~options ~tables p))
              progs
          in
          (outs, Unix.gettimeofday () -. t0, (Telemetry.snapshot ()).named))
    in
    let spills = counter counters "codegen.spills_total" in
    let reloads = counter counters "codegen.reloads_total" in
    let per_prog =
      List.map2
        (fun (n, p) (_, out) ->
          let sim =
            Targets.run_text ~target out.Driver.assembly
              ~global_types:p.Tree.globals ~entry:"main" []
          in
          (n, sim.Simout.cycles))
        progs outs
    in
    let cycles = List.fold_left (fun a (_, c) -> a + c) 0 per_prog in
    (cycles, spills, reloads, compile_s, per_prog)
  in
  let results =
    List.map
      (fun target ->
        let s_cyc, s_sp, s_rl, s_t, s_per = measure target Driver.Stack in
        let c_cyc, c_sp, c_rl, c_t, c_per = measure target Driver.Color in
        row "%-5s stack: %7d cycles  %3d spills  %3d reloads  %.1f ms@."
          (Targets.name target) s_cyc s_sp s_rl (s_t *. 1e3);
        row "%-5s color: %7d cycles  %3d spills  %3d reloads  %.1f ms@."
          (Targets.name target) c_cyc c_sp c_rl (c_t *. 1e3);
        row "%-5s color/stack cycles: %.4fx (%s)@." (Targets.name target)
          (float_of_int c_cyc /. float_of_int (max 1 s_cyc))
          (if c_cyc < s_cyc then "color wins"
           else if c_cyc = s_cyc then "tie"
           else "STACK WINS");
        (target, (s_cyc, s_sp, s_rl, s_t, s_per), (c_cyc, c_sp, c_rl, c_t, c_per)))
      Targets.all
  in
  let oc = open_out "BENCH_regalloc.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"programs\": %d,\n" (List.length progs);
  p "  \"targets\": [\n";
  List.iteri
    (fun k (target, (s_cyc, s_sp, s_rl, s_t, s_per), (c_cyc, c_sp, c_rl, c_t, c_per)) ->
      let alloc name (cyc, sp, rl, t, per) last =
        p "      \"%s\": {\n" name;
        p "        \"total_cycles\": %d,\n" cyc;
        p "        \"spills\": %d,\n" sp;
        p "        \"reloads\": %d,\n" rl;
        p "        \"compile_s\": %.4f,\n" t;
        p "        \"per_program\": { ";
        List.iteri
          (fun i (n, c) ->
            p "%s\"%s\": %d" (if i = 0 then "" else ", ") n c)
          per;
        p " }\n";
        p "      }%s\n" (if last then "" else ",")
      in
      p "    { \"target\": \"%s\",\n" (Targets.name target);
      alloc "stack" (s_cyc, s_sp, s_rl, s_t, s_per) false;
      alloc "color" (c_cyc, c_sp, c_rl, c_t, c_per) false;
      p "      \"color_strictly_wins\": %b\n" (c_cyc < s_cyc);
      p "    }%s\n" (if k = List.length results - 1 then "" else ","))
    results;
  p "  ]\n";
  p "}\n";
  close_out oc;
  row "written: BENCH_regalloc.json@."

(* ============================================================================ *)
(* SPECIALIZE: profile-guided table layout                                      *)
(* ============================================================================ *)

let bench_specialize () =
  section
    "SPECIALIZE: profile-guided table layout (hot states comb-packed first, \
     cold states behind an exact fallback; the assembly must stay \
     byte-identical — only probe locality changes)";
  (* the parity corpus: examples/c when run from the repo root, plus the
     built-in fixed suite and a generated fuzz corpus — every program is
     compiled with and without specialization and byte-compared *)
  let file_sources = example_sources () in
  let fuzz_seeds = if quick then 40 else 200 in
  let parity_progs =
    List.map
      (fun (n, s) -> (n, Sema.compile s))
      (Corpus.fixed_programs @ file_sources)
    @ List.init fuzz_seeds (fun seed ->
          ( Fmt.str "fuzz-%d" seed,
            Sema.lower_program
              (Corpus.program ~seed ~functions:2 ~stmts_per_function:8) ))
  in
  let null_cb : unit Matcher.callbacks =
    {
      Matcher.on_shift = (fun _ -> ());
      on_reduce = (fun _ _ -> ());
      choose = (fun _ _ -> 0);
    }
  in
  let results =
    List.map
      (fun target ->
        let name = Targets.name target in
        let b = Targets.backend_of target in
        let g = Lazy.force b.Backend.default_grammar in
        (* the profile is the firing heat of the fixed corpus — the
           "hot" workload the layout is shaped around *)
        let profile = Targets.heat_profile target in
        let dense = Tables.build g in
        let packed = Packed.pack dense in
        let spec = Packed.pack ~profile dense in
        let verified =
          match Packed.verify spec dense with
          | Ok () -> true
          | Error m ->
            row "  %s: VERIFICATION FAILED: %s@." name m;
            false
        in
        let packed_engine = Matcher.packed_engine ~grammar:g packed in
        let spec_engine = Matcher.packed_engine ~grammar:g spec in
        let asm e prog =
          let tables = Driver.of_engine ~backend:b e in
          (Driver.compile_program ~tables prog).Driver.assembly
        in
        let identical =
          List.for_all
            (fun (_, prog) -> asm packed_engine prog = asm spec_engine prog)
            parity_progs
        in
        (* matcher speedup on the hot corpus: the same programs the
           profile was collected from, pre-linearised so the measurement
           targets the shift/reduce loop itself *)
        let token_lists =
          List.concat_map
            (fun (_, src) ->
              let prog = Sema.compile src in
              List.concat_map
                (fun f ->
                  let tr = Transform.run ~leaf_need:b.Backend.leaf_need f in
                  List.filter_map
                    (function
                      | Tree.Stree t -> Some (Termname.linearize t)
                      | _ -> None)
                    tr.Transform.func.Tree.body)
                prog.Tree.funcs)
            Corpus.fixed_programs
        in
        (* replicate the corpus so one timed pass is several times the
           timer/scheduler jitter, and take the best of many passes:
           the per-probe delta being measured is a few percent *)
        let rep_token_lists =
          List.concat (List.init 8 (fun _ -> token_lists))
        in
        let run_all e () =
          List.iter
            (fun toks -> ignore (Matcher.run_engine e null_cb toks))
            rep_token_lists
        in
        let mres =
          measure_ns_best
            ~repeats:(if quick then 2 else 8)
            [
              ("m-packed-" ^ name, run_all packed_engine);
              ("m-spec-" ^ name, run_all spec_engine);
            ]
        in
        let ns_packed, ns_spec, speedup =
          match
            (lookup mres ("m-packed-" ^ name), lookup mres ("m-spec-" ^ name))
          with
          | Some p, Some s -> (p, s, p /. s)
          | _ -> (nan, nan, nan)
        in
        (* the measured hot/cold probe split on the training corpus *)
        let named =
          measured Counters (fun () ->
              List.iter
                (fun toks -> ignore (Matcher.run_engine spec_engine null_cb toks))
                token_lists;
              (Telemetry.snapshot ()).named)
        in
        let counter n = Option.value ~default:0 (List.assoc_opt n named) in
        let hot_probes = counter "matcher.probe_hits_hot" in
        let cold_probes = counter "matcher.probe_hits_cold" in
        let pst = Packed.stats packed in
        let sst = Packed.stats spec in
        row "[%s]@." name;
        row "  verified cell-for-cell:   %b@." verified;
        row "  assembly byte-identical:  %b  (%d programs)@." identical
          (List.length parity_progs);
        row "  hot states:               %d of %d@." sst.Packed.hot_states
          sst.Packed.states;
        row "  table bytes:              %d -> %d  (delta %+d)@."
          pst.Packed.packed_bytes sst.Packed.packed_bytes
          (sst.Packed.packed_bytes - pst.Packed.packed_bytes);
        row "  matcher, hot corpus:      %.2f ms packed, %.2f ms specialized, \
             speedup %.3fx@."
          (ns_packed /. 1e6) (ns_spec /. 1e6) speedup;
        row "  probe split:              %d hot, %d cold@." hot_probes
          cold_probes;
        ( name,
          verified,
          identical,
          pst,
          sst,
          (ns_packed, ns_spec, speedup),
          (hot_probes, cold_probes) ))
      Targets.all
  in
  let oc = open_out "BENCH_specialize.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"quick\": %b,\n" quick;
  p "  \"parity_programs\": %d,\n" (List.length parity_progs);
  p "  \"targets\": [\n";
  List.iteri
    (fun k
         ( name,
           verified,
           identical,
           pst,
           sst,
           (ns_packed, ns_spec, speedup),
           (hot_probes, cold_probes) ) ->
      p "    { \"target\": \"%s\",\n" name;
      p "      \"verified\": %b,\n" verified;
      p "      \"assembly_identical\": %b,\n" identical;
      p "      \"states\": %d,\n" sst.Packed.states;
      p "      \"hot_states\": %d,\n" sst.Packed.hot_states;
      p "      \"baseline_table_bytes\": %d,\n" pst.Packed.packed_bytes;
      p "      \"specialized_table_bytes\": %d,\n"
        sst.Packed.packed_bytes;
      p "      \"table_bytes_delta\": %d,\n"
        (sst.Packed.packed_bytes - pst.Packed.packed_bytes);
      p "      \"matcher_ms_packed\": %.3f,\n" (ns_packed /. 1e6);
      p "      \"matcher_ms_specialized\": %.3f,\n" (ns_spec /. 1e6);
      p "      \"matcher_speedup\": %.3f,\n" speedup;
      p "      \"probe_hits_hot\": %d,\n" hot_probes;
      p "      \"probe_hits_cold\": %d\n" cold_probes;
      p "    }%s\n" (if k = List.length results - 1 then "" else ","))
    results;
  p "  ]\n";
  p "}\n";
  close_out oc;
  row "written: BENCH_specialize.json@."

(* ============================================================================ *)

let () =
  Fmt.pr "Table-driven code generation: benchmark harness%s@."
    (if quick then " (quick mode)" else "");
  let sections =
    [
      ("grammar", bench_grammar_stats);
      ("reverse", bench_reverse_ops);
      ("tblc", bench_table_construction);
      ("mem", bench_table_size);
      ("fig2", bench_phase_profile);
      ("time", bench_codegen_time);
      ("size", bench_code_size);
      ("idioms", bench_idioms);
      ("peephole", bench_peephole);
      ("coverage", bench_coverage);
      ("appendix", bench_appendix);
      ("throughput", bench_throughput);
      ("retarget", bench_retarget);
      ("serve", bench_serve);
      ("regalloc", bench_regalloc);
      ("specialize", bench_specialize);
    ]
  in
  (match
     List.filter (fun k -> not (List.mem_assoc k sections)) selected
   with
  | [] -> ()
  | unknown ->
    Fmt.epr "unknown section(s): %a; known: %a@."
      Fmt.(list ~sep:comma string)
      unknown
      Fmt.(list ~sep:comma string)
      (List.map fst sections);
    exit 2);
  Telemetry.with_outputs ?metrics_out ?trace_out (fun () ->
      List.iter (fun (key, f) -> if want key then f ()) sections);
  Option.iter (Fmt.pr "trace written: %s@.") trace_out;
  Option.iter (Fmt.pr "metrics written: %s@.") metrics_out;
  Fmt.pr "@.done.@."

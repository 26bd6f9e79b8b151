(* Differential tests for the packed (production) table representation:
   the full replicated VAX grammar corpus through the dense reference
   loop and the packed matcher must produce identical values, traces
   and Reject errors; plus round-trip save/load, stale-grammar, old
   format and corrupt-shape rejection, and the cache. *)

open Gg_grammar
open Gg_tablegen
open Gg_matcher
module Tree = Gg_ir.Tree
module Termname = Gg_ir.Termname
module Transform = Gg_transform.Transform
module Grammar_def = Gg_vax.Grammar_def
module Driver = Gg_codegen.Driver
module Sema = Gg_frontc.Sema
module Corpus = Gg_frontc.Corpus

let vax_grammar = lazy (Grammar_def.grammar Grammar_def.default)
let dense = lazy (Tables.build (Lazy.force vax_grammar))
let packed = lazy (Packed.pack (Lazy.force dense))

let packed_engine =
  lazy
    (Matcher.packed_engine ~grammar:(Lazy.force vax_grammar)
       (Lazy.force packed))

let null_cb : unit Matcher.callbacks =
  {
    Matcher.on_shift = (fun _ -> ());
    on_reduce = (fun _ _ -> ());
    choose = (fun _ _ -> 0);
  }

(* every matcher-ready statement tree of a compiled program *)
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
    (let fixed =
       List.concat_map
         (fun (_, src) -> stmt_trees (Sema.compile src))
         Corpus.fixed_programs
     in
     let random =
       List.concat_map
         (fun seed ->
           stmt_trees
             (Sema.lower_program
                (Corpus.program ~seed ~functions:2 ~stmts_per_function:8)))
         [ 1; 2; 3; 4; 5 ]
     in
     (* the typed-tree corpus reaches byte/word/float and conversion
        productions that C's promotion rules bypass *)
     let typed =
       List.concat_map
         (fun seed -> stmt_trees (Gg_ir.Treegen.program ~seed ~stmts:12))
         [ 1; 2; 3; 4; 5; 6; 7; 8 ]
     in
     fixed @ random @ typed)

let run_outcome run tokens =
  match run null_cb tokens with
  | (outcome : unit Matcher.outcome) -> Ok outcome.Matcher.trace
  | exception Matcher.Reject e -> Error e

let check_same_outcome what tokens =
  let d = run_outcome (Reference.run ~trace:true (Lazy.force dense)) tokens in
  let p =
    run_outcome
      (Matcher.run_engine ~trace:true (Lazy.force packed_engine))
      tokens
  in
  match (d, p) with
  | Ok dt, Ok pt ->
    if dt <> pt then Alcotest.failf "%s: traces differ" what
  | Error de, Error pe ->
    if de.Matcher.at <> pe.Matcher.at then
      Alcotest.failf "%s: error position differs (dense %d, packed %d)" what
        de.Matcher.at pe.Matcher.at;
    if de.Matcher.token <> pe.Matcher.token then
      Alcotest.failf "%s: error token differs (dense %s, packed %s)" what
        de.Matcher.token pe.Matcher.token;
    (* the one sanctioned difference (see Reference): on a runaway
       chain-rule loop both reject with "<looping>", but the reference
       budgets every action and the matcher reductions only, so they
       may stop at different points of the cycle *)
    if de.Matcher.token = "<looping>" then ()
    else if de.Matcher.state <> pe.Matcher.state then
      Alcotest.failf "%s: error state differs (dense %d, packed %d)" what
        de.Matcher.state pe.Matcher.state
    else if de.Matcher.expected <> pe.Matcher.expected then
      Alcotest.failf "%s: expected sets differ (dense %a, packed %a)" what
        Fmt.(Dump.list string)
        de.Matcher.expected
        Fmt.(Dump.list string)
        pe.Matcher.expected
  | Ok _, Error pe ->
    Alcotest.failf "%s: packed rejected (%a) where dense accepted" what
      Matcher.pp_error pe
  | Error de, Ok _ ->
    Alcotest.failf "%s: dense rejected (%a) where packed accepted" what
      Matcher.pp_error de

(* -- action-function parity on the full VAX tables ------------------------- *)

let test_vax_action_parity () =
  let t = Lazy.force dense in
  let p = Lazy.force packed in
  let g = Lazy.force vax_grammar in
  let nt = Symtab.n_terms g.Grammar.symtab in
  let nn = Symtab.n_nonterms g.Grammar.symtab in
  for s = 0 to Tables.n_states t - 1 do
    for a = 0 to nt do
      if t.Tables.action.(s).(a) <> Packed.action p s a then
        Alcotest.failf "action (%d, %d) differs" s a
    done;
    if Tables.expected t s <> Packed.expected p s then
      Alcotest.failf "expected set of state %d differs" s;
    for n = 0 to nn - 1 do
      if t.Tables.goto_.(s).(n) <> Packed.goto p s n then
        Alcotest.failf "goto (%d, %d) differs" s n
    done
  done

(* -- the corpus: identical traces on every statement tree ------------------ *)

let test_corpus_traces () =
  let trees = Lazy.force corpus_trees in
  Alcotest.(check bool) "corpus is non-trivial" true (List.length trees > 100);
  List.iteri
    (fun i tree ->
      check_same_outcome (Fmt.str "tree %d" i) (Termname.linearize tree))
    trees

(* -- identical generated code through the full driver ---------------------- *)

(* the densest-first and the heat-ordered layouts of the one table
   compile every fixed program to the same bytes *)
let test_fixed_programs_same_assembly () =
  let vax = Gg_codegen.Backend.vax in
  let heat_ordered =
    Driver.of_engine ~backend:vax
      (Matcher.packed_engine ~grammar:(Lazy.force vax_grammar)
         (Packed.pack
            ~profile:(Gg_targets.Targets.heat_profile Gg_codegen.Backend.Vax)
            (Lazy.force dense)))
  in
  List.iter
    (fun (name, src) ->
      let prog = Sema.compile src in
      let asm tables = (Driver.compile_program ~tables prog).Driver.assembly in
      Alcotest.(check string) (Fmt.str "%s assembly" name)
        (asm (Driver.of_engine ~backend:vax (Lazy.force packed_engine)))
        (asm heat_ordered))
    Corpus.fixed_programs

(* -- error parity on broken inputs ----------------------------------------- *)

let broken_inputs () =
  (* truncations and corruptions of real linearisations: dense and
     packed must report the same syntactic block at the same token with
     the same expected set *)
  let trees = Lazy.force corpus_trees in
  let some_trees = List.filteri (fun i _ -> i mod 7 = 0) trees in
  List.concat_map
    (fun tree ->
      let tokens = Termname.linearize tree in
      let n = List.length tokens in
      let take k = List.filteri (fun i _ -> i < k) tokens in
      let swap k =
        (* duplicate the first token into position k: usually illegal *)
        List.mapi (fun i t -> if i = k then List.hd tokens else t) tokens
      in
      [ take (n / 2); take (n - 1); swap (n / 2); swap (n - 1) ])
    some_trees

let test_error_parity () =
  List.iteri
    (fun i tokens -> check_same_outcome (Fmt.str "broken input %d" i) tokens)
    (broken_inputs ())

(* -- the comb packer against a plain first-fit oracle ------------------------ *)

(* The reference packer: every row, in the order given, restarts at
   base 0 and tries each base in turn.  [Packed.comb_pack] skips bases
   that cannot fit and must land every row exactly where this scan
   does, with arrays reaching past every row's base + width. *)
let reference_comb_pack ~width ~n_states rows =
  let size = ref (width * 4) in
  let check = ref (Array.make !size (-1)) in
  let value = ref (Array.make !size 0) in
  let grow upto =
    if upto >= !size then begin
      let nsize = max (2 * !size) (upto + width + 1) in
      let ncheck = Array.make nsize (-1) in
      let nvalue = Array.make nsize 0 in
      Array.blit !check 0 ncheck 0 !size;
      Array.blit !value 0 nvalue 0 !size;
      check := ncheck;
      value := nvalue;
      size := nsize
    end
  in
  let base = Array.make n_states 0 in
  let high = ref (max 1 width) in
  List.iter
    (fun (s, entries) ->
      match entries with
      | [] -> base.(s) <- 0
      | _ ->
        let fits b =
          List.for_all
            (fun (col, _) ->
              let i = b + col in
              grow i;
              !check.(i) = -1)
            entries
        in
        let rec find b = if fits b then b else find (b + 1) in
        let b = find 0 in
        base.(s) <- b;
        high := max !high (b + width);
        grow !high;
        List.iter
          (fun (col, code) ->
            let i = b + col in
            !check.(i) <- s;
            !value.(i) <- code)
          entries)
    rows;
  let trim a = Array.sub a 0 !high in
  (base, trim !check, trim !value)

(* the order [Packed.pack] uses without a profile *)
let densest_first rows =
  List.stable_sort
    (fun (_, a) (_, b) -> compare (List.length b) (List.length a))
    rows

let check_same_comb what ~order ~width ~n_states rows =
  let wb, wc, wv = reference_comb_pack ~width ~n_states rows in
  let gb, gc, gv = Packed.comb_pack ~width ~n_states rows in
  let name part = Fmt.str "%s (%s order): %s" what order part in
  Alcotest.(check (array int)) (name "base") wb gb;
  Alcotest.(check (array int)) (name "check") wc gc;
  Alcotest.(check (array int)) (name "value") wv gv

(* random rows drawn from a handful of shared column sets (the shape of
   real LR rows: few distinct sets, many states), a few rows with their
   own columns, and some empty rows; the order is shuffled so the
   given-order packing is not densest-first *)
let gen_comb_rows =
  let open QCheck.Gen in
  let* width = int_range 1 40 in
  let col_set = list_size (int_range 1 width) (int_bound (width - 1)) in
  let* sets = list_size (int_range 1 6) col_set in
  let sets = Array.of_list (List.map (List.sort_uniq Int.compare) sets) in
  let* n_states = int_range 1 120 in
  let row s =
    let* pick = int_bound (Array.length sets + 2) in
    let* cols =
      if pick < Array.length sets then return sets.(pick)
      else if pick = Array.length sets then return []
      else map (List.sort_uniq Int.compare) col_set
    in
    let* codes = list_repeat (List.length cols) (int_range 1 1000) in
    return (s, List.combine cols codes)
  in
  let* rows = flatten_l (List.init n_states row) in
  let* rows = shuffle_l rows in
  return (width, n_states, rows)

let prop_comb_pack_matches_first_fit =
  QCheck.Test.make ~name:"comb_pack = plain first-fit on shared column sets"
    ~count:300
    (QCheck.make
       ~print:(fun (w, n, rows) ->
         Fmt.str "width %d, %d states, rows %a" w n
           Fmt.(Dump.list (Dump.pair int (Dump.list (Dump.pair int int))))
           rows)
       gen_comb_rows)
    (fun (width, n_states, rows) ->
      List.for_all
        (fun rows ->
          reference_comb_pack ~width ~n_states rows
          = Packed.comb_pack ~width ~n_states rows)
        [ densest_first rows; rows ])

(* A dense table's comb rows, as (column, nonzero code) per state: the
   shift and accept cells of the action matrix (the bulk of the
   exception rows [Packed.pack] lays out) and the goto cells. *)
let comb_rows (t : Tables.t) =
  let rows matrix present =
    Array.to_list
      (Array.mapi
         (fun s row ->
           let cells = ref [] in
           Array.iteri
             (fun c x -> if present x then cells := (c, c + 1) :: !cells)
             row;
           (s, !cells))
         matrix)
  in
  ( rows t.Tables.action (function
      | Tables.Shift _ | Tables.Accept -> true
      | Tables.Reduce _ | Tables.Error -> false),
    rows t.Tables.goto_ (fun target -> target >= 0) )

(* the real rows: both targets' action and goto combs, in densest-first
   and in a scrambled order (as a heat profile may order them) *)
let test_comb_pack_real_rows () =
  let scramble rows =
    List.mapi (fun i r -> ((i * 7919) mod 1009, i, r)) rows
    |> List.sort compare
    |> List.map (fun (_, _, r) -> r)
  in
  List.iter
    (fun (target, g) ->
      let t = Tables.build g in
      let n_states = Tables.n_states t in
      let act_rows, goto_rows = comb_rows t in
      List.iter
        (fun (comb, width, rows) ->
          let what = Fmt.str "%s %s comb" target comb in
          check_same_comb what ~order:"densest-first" ~width ~n_states
            (densest_first rows);
          check_same_comb what ~order:"scrambled" ~width ~n_states
            (scramble rows))
        [
          ("action", Tables.eof t + 1, act_rows);
          ("goto", Symtab.n_nonterms g.Grammar.symtab, goto_rows);
        ])
    [
      ("vax", Lazy.force vax_grammar);
      ("risc", Lazy.force Gg_risc.Grammar_def.default_grammar);
    ]

(* The packed files are a pure function of the grammar: these are the
   MD5s of both targets' table files, pinned with their grammar
   digests.  A packer or preparation change that moves a single byte
   (a cell, a default choice, even the sharing [Marshal] records)
   fails here; a grammar edit changes the digest and needs a re-pin. *)
let pinned_table_files =
  [
    ( "vax",
      Lazy.force vax_grammar,
      "69e3cbb5ff437ee4564bceb87ab24a37",
      "274a6e383a201788c5a2c1e05a78d535" );
    ( "risc",
      Lazy.force Gg_risc.Grammar_def.default_grammar,
      "cf511208be602b329d71812bba5082c1",
      "743b641c195a1048b279f6668d0c1ab7" );
  ]

let test_table_files_pinned () =
  List.iter
    (fun (target, g, grammar_digest, file_md5) ->
      Alcotest.(check string)
        (Fmt.str "%s grammar digest (re-pin after a grammar edit)" target)
        grammar_digest (Grammar.digest g);
      let path = Filename.temp_file "ggcg" ".tbl" in
      Packed.save (Packed.pack (Tables.build g)) path;
      let md5 = Digest.to_hex (Digest.file path) in
      Sys.remove path;
      Alcotest.(check string) (Fmt.str "%s table file bytes" target) file_md5 md5)
    pinned_table_files

(* -- save / load round trip ------------------------------------------------- *)

let test_vax_save_load_roundtrip () =
  let g = Lazy.force vax_grammar in
  let p = Lazy.force packed in
  let path = Filename.temp_file "ggcg" ".tbl" in
  Packed.save p path;
  let loaded = Packed.load g path in
  Sys.remove path;
  let t = Lazy.force dense in
  let nt = Symtab.n_terms g.Grammar.symtab in
  for s = 0 to Tables.n_states t - 1 do
    for a = 0 to nt do
      if Packed.action p s a <> Packed.action loaded s a then
        Alcotest.failf "loaded action (%d, %d) differs" s a
    done
  done;
  Alcotest.(check string) "digest survives" (Packed.digest p)
    (Packed.digest loaded)

let test_stale_grammar_rejected () =
  (* edit the grammar without changing any symbol counts: the old
     save-format validated only n_terms/n_nonterms and loaded wrong
     instructions silently; v2 must reject on the digest *)
  let edited =
    List.map
      (fun (lhs, rhs, action, note) ->
        if note = "addl3 a,b,d" then (lhs, rhs, action, "subl3 a,b,d")
        else (lhs, rhs, action, note))
      Toy.specs
  in
  let g = Toy.grammar in
  let g' = Grammar.make_exn ~start:"stmt" edited in
  Alcotest.(check bool)
    "same symbol counts" true
    (Symtab.n_terms g.Grammar.symtab = Symtab.n_terms g'.Grammar.symtab
    && Symtab.n_nonterms g.Grammar.symtab = Symtab.n_nonterms g'.Grammar.symtab);
  Alcotest.(check bool)
    "digests differ" true
    (Grammar.digest g <> Grammar.digest g');
  let p = Packed.pack (Tables.build g) in
  let path = Filename.temp_file "ggcg" ".tbl" in
  Packed.save p path;
  (match Packed.load g' path with
  | exception Failure msg ->
    Alcotest.(check bool)
      (Fmt.str "stale message names both digests: %s" msg)
      true
      (let has d =
         let n = String.length msg and k = String.length d in
         let rec go i = i + k <= n && (String.sub msg i k = d || go (i + 1)) in
         go 0
       in
       has (Grammar.digest g) && has (Grammar.digest g'))
  | _ -> Alcotest.fail "stale tables accepted");
  (* the unedited grammar still loads *)
  ignore (Packed.load g path);
  Sys.remove path

let test_corrupt_file_rejected () =
  let path = Filename.temp_file "ggcg" ".tbl" in
  let oc = open_out_bin path in
  output_string oc "ggcg-tables-v1 old junk";
  close_out oc;
  (match Packed.load Toy.grammar path with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "v1/garbage file accepted");
  let oc = open_out_bin path in
  output_string oc "ggcg-tables-v4truncated";
  close_out oc;
  (match Packed.load Toy.grammar path with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "truncated file accepted");
  Sys.remove path

(* -- the cache -------------------------------------------------------------- *)

let test_cache_miss_then_hit () =
  let dir = Filename.temp_file "ggcg-cache" "" in
  Sys.remove dir;
  let g = Toy.grammar in
  Alcotest.(check bool) "cold cache" true (Cache.load ~dir g = None);
  let p1 = Cache.load_or_build ~dir g in
  Alcotest.(check bool) "file created" true (Sys.file_exists (Cache.path ~dir g));
  (match Cache.load ~dir g with
  | None -> Alcotest.fail "warm cache missed"
  | Some p2 ->
    Alcotest.(check string) "same digest" (Packed.digest p1) (Packed.digest p2));
  (* an edited grammar misses (different digest -> different file) *)
  let edited =
    ("stmt", [ "Assign.l"; "lval.l"; "Mul.l"; "rval.l"; "rval.l" ],
     Gg_grammar.Action.Emit "mul.l", "mull3 a,b,d")
    :: Toy.specs
  in
  let g' = Grammar.make_exn ~start:"stmt" edited in
  Alcotest.(check bool) "edited grammar misses" true (Cache.load ~dir g' = None);
  (* cleanup *)
  Sys.remove (Cache.path ~dir g);
  Sys.rmdir dir

let test_cache_target_keys () =
  (* the retargeting regression: the same grammar cached for two
     targets must use distinct keys — a stale vax table must never be
     served for a risc request — and clear-stale must respect every
     target's live entry *)
  let dir = Filename.temp_file "ggcg-cache" "" in
  Sys.remove dir;
  let g = Toy.grammar in
  let vax_path = Cache.path ~dir ~target:"vax" g in
  let risc_path = Cache.path ~dir ~target:"risc" g in
  Alcotest.(check bool) "distinct files per target" false (vax_path = risc_path);
  let p = Cache.load_or_build ~dir ~target:"vax" g in
  Alcotest.(check bool) "vax entry on disk" true (Sys.file_exists vax_path);
  Alcotest.(check bool) "vax entry never serves a risc request" true
    (Cache.load ~dir ~target:"risc" g = None);
  ignore (Cache.store ~dir ~target:"risc" g p : bool);
  (match Cache.load ~dir ~target:"risc" g with
  | None -> Alcotest.fail "risc entry missed after store"
  | Some p2 ->
    Alcotest.(check string) "same digest" (Packed.digest p) (Packed.digest p2));
  (* both targets live: a clear pass removes nothing *)
  let removed = Cache.clear_stale ~dir [ ("vax", g); ("risc", g) ] in
  Alcotest.(check int) "both live entries kept" 0 (List.length removed);
  (* only vax live: the risc entry is stale and evicted, vax kept *)
  let removed = Cache.clear_stale ~dir [ ("vax", g) ] in
  Alcotest.(check bool) "risc entry evicted" true
    (List.exists (fun (f, _) -> f = risc_path) removed);
  Alcotest.(check bool) "vax entry kept" true (Sys.file_exists vax_path);
  Alcotest.(check bool) "risc entry gone" false (Sys.file_exists risc_path);
  Sys.remove vax_path;
  Sys.rmdir dir

let test_cache_store_failure_leaves_no_tmp () =
  (* a directory squatting on the destination makes the final rename
     fail after the temporary file was written; with and without a
     profile in the key *)
  let dir = Filename.temp_file "ggcg-cache" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let g = Toy.grammar in
  let profile = Heat.of_counts [ (1, 5); (3, 2) ] in
  List.iter
    (fun profile ->
      let dest = Cache.path ~dir ?profile g in
      Sys.mkdir dest 0o755;
      Alcotest.(check bool) "store reports failure" false
        (Cache.store ~dir g (Packed.pack ?profile (Tables.build g)));
      let left = Array.to_list (Sys.readdir dir) in
      Alcotest.(check (list string))
        "only the squatting directory is left" [ Filename.basename dest ] left;
      Sys.rmdir dest)
    [ None; Some profile ];
  Sys.rmdir dir

(* -- retired formats and corrupt shapes ------------------------------------ *)

(* The record layouts of the retired ggcg-tables-v2 (densest-first
   comb) and v3 (hot comb + cold lists) files, field for field, filled
   with arrays of the right sizes.  [Marshal] does not check record
   shape, so [Packed.load] must refuse both before unmarshalling. *)
type v2 = {
  v2_n_terms : int;
  v2_n_nonterms : int;
  v2_n_states : int;
  v2_grammar_digest : string;
  v2_defaults : int array;
  v2_valid : Bytes.t;
  v2_act_base : int array;
  v2_act_check : int array;
  v2_act_value : int array;
  v2_goto_base : int array;
  v2_goto_check : int array;
  v2_goto_value : int array;
  v2_aux : int array array;
}

type v3 = {
  v3_n_terms : int;
  v3_n_nonterms : int;
  v3_n_states : int;
  v3_n_hot : int;
  v3_grammar_digest : string;
  v3_profile_digest : string;
  v3_hot : Bytes.t;
  v3_valid : Bytes.t;
  v3_defaults : int array;
  v3_act_base : int array;
  v3_act_check : int array;
  v3_act_value : int array;
  v3_cold_off : int array;
  v3_cold_col : int array;
  v3_cold_val : int array;
  v3_goto_base : int array;
  v3_goto_check : int array;
  v3_goto_value : int array;
  v3_aux : int array array;
}

let write_old_format path magic value =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc magic;
      Marshal.to_channel oc value [])

let test_old_formats_refused () =
  let dir = Filename.temp_file "ggcg-cache" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let g = Lazy.force vax_grammar in
  let t = Lazy.force dense in
  let n = Tables.n_states t and nt = Tables.eof t in
  let nn = Symtab.n_nonterms g.Grammar.symtab in
  let act_rows, goto_rows = comb_rows t in
  let comb width rows =
    Packed.comb_pack ~width ~n_states:n (densest_first rows)
  in
  let act_base, act_check, act_value = comb (nt + 1) act_rows in
  let goto_base, goto_check, goto_value = comb nn goto_rows in
  let valid = Bytes.make (((n * (nt + 1)) + 7) / 8) '\255' in
  let v2 =
    {
      v2_n_terms = nt;
      v2_n_nonterms = nn;
      v2_n_states = n;
      v2_grammar_digest = Grammar.digest g;
      v2_defaults = Array.make n 0;
      v2_valid = valid;
      v2_act_base = act_base;
      v2_act_check = act_check;
      v2_act_value = act_value;
      v2_goto_base = goto_base;
      v2_goto_check = goto_check;
      v2_goto_value = goto_value;
      v2_aux = [||];
    }
  in
  let profile = Heat.of_counts [ (1, 5); (3, 2) ] in
  (* every state hot: the v3 layout with empty cold lists *)
  let v3 =
    {
      v3_n_terms = nt;
      v3_n_nonterms = nn;
      v3_n_states = n;
      v3_n_hot = n;
      v3_grammar_digest = Grammar.digest g;
      v3_profile_digest = Heat.digest profile;
      v3_hot = Bytes.make ((n + 7) / 8) '\255';
      v3_valid = valid;
      v3_defaults = Array.make n 0;
      v3_act_base = act_base;
      v3_act_check = act_check;
      v3_act_value = act_value;
      v3_cold_off = Array.make (n + 1) 0;
      v3_cold_col = [||];
      v3_cold_val = [||];
      v3_goto_base = goto_base;
      v3_goto_check = goto_check;
      v3_goto_value = goto_value;
      v3_aux = [||];
    }
  in
  (* under the live key names, so the cache finds them *)
  let v2_file = Cache.path ~dir g and v3_file = Cache.path ~dir ~profile g in
  write_old_format v2_file "ggcg-tables-v2" v2;
  write_old_format v3_file "ggcg-tables-v3" v3;
  (match Packed.load g v2_file with
  | _ -> Alcotest.fail "v2 file loaded"
  | exception Failure _ -> ());
  (match Packed.load ~profile g v3_file with
  | _ -> Alcotest.fail "v3 file loaded"
  | exception Failure _ -> ());
  (* the cache rebuilds over both, and the rebuilt files load *)
  List.iter
    (fun (profile, file) ->
      Alcotest.(check bool) "old file is a cache miss" true
        (Cache.load ~dir ?profile g = None);
      let rebuilt = Cache.load_or_build ~dir ?profile g in
      (match Packed.verify rebuilt (Lazy.force dense) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "rebuilt tables: %s" m);
      ignore (Packed.load ?profile g file : Packed.t);
      Sys.remove file)
    [ (None, v2_file); (Some profile, v3_file) ];
  Sys.rmdir dir

(* The v4 record layout, field for field, to corrupt a file the way a
   damaged disk might: still unmarshallable, right magic and digests,
   but with arrays [Packed.action_code] would read out of bounds. *)
type v4 = {
  n_terms : int;
  n_nonterms : int;
  n_states : int;
  grammar_digest : string;
  profile_digest : string option;
  defaults : int array;
  valid : Bytes.t;
  act_base : int array;
  act_check : int array;
  act_value : int array;
  cold_off : int array;
  cold_col : int array;
  cold_val : int array;
  goto_base : int array;
  goto_check : int array;
  goto_value : int array;
  aux : int array array;
}

let test_corrupt_shapes_rejected () =
  let g = Lazy.force vax_grammar in
  let profile = Gg_targets.Targets.heat_profile Gg_codegen.Backend.Vax in
  let path = Filename.temp_file "ggcg" ".tbl" in
  Packed.save (Packed.pack ~profile (Lazy.force dense)) path;
  let magic_len = String.length "ggcg-tables-v4" in
  let read () : string * v4 =
    In_channel.with_open_bin path (fun ic ->
        let magic = really_input_string ic magic_len in
        (magic, Marshal.from_channel ic))
  in
  let magic, t = read () in
  let corrupt what (t' : v4) =
    write_old_format path magic t';
    match Packed.load ~profile g path with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Failure _ -> ()
  in
  let len = Array.length t.act_check in
  corrupt "short act_check"
    {
      t with
      act_check = Array.sub t.act_check 0 (len - 1);
      act_value = Array.sub t.act_value 0 (len - 1);
    };
  let cold_off = Array.copy t.cold_off in
  let s = ref 1 in
  while cold_off.(!s) = cold_off.(!s + 1) do incr s done;
  cold_off.(!s) <- cold_off.(!s + 1) + 1;
  corrupt "non-monotone cold_off" { t with cold_off };
  (* the untouched record still loads: the corruptions were the fault *)
  write_old_format path magic t;
  ignore (Packed.load ~profile g path : Packed.t);
  Sys.remove path

let suite =
  [
    Alcotest.test_case "VAX action/goto/expected parity" `Quick
      test_vax_action_parity;
    Alcotest.test_case "corpus traces identical" `Slow test_corpus_traces;
    Alcotest.test_case "fixed programs compile identically" `Slow
      test_fixed_programs_same_assembly;
    Alcotest.test_case "error parity on broken inputs" `Slow test_error_parity;
    QCheck_alcotest.to_alcotest prop_comb_pack_matches_first_fit;
    Alcotest.test_case "comb_pack = first-fit on VAX and RISC rows" `Slow
      test_comb_pack_real_rows;
    Alcotest.test_case "table files byte-identical to the pinned MD5s" `Quick
      test_table_files_pinned;
    Alcotest.test_case "VAX save/load round trip" `Quick
      test_vax_save_load_roundtrip;
    Alcotest.test_case "stale grammar rejected on load" `Quick
      test_stale_grammar_rejected;
    Alcotest.test_case "corrupt and v1 files rejected" `Quick
      test_corrupt_file_rejected;
    Alcotest.test_case "cache: miss, store, hit, edited-grammar miss" `Quick
      test_cache_miss_then_hit;
    Alcotest.test_case "cache: per-target keys never collide" `Quick
      test_cache_target_keys;
    Alcotest.test_case "cache: failed store leaves no temporary file" `Quick
      test_cache_store_failure_leaves_no_tmp;
    Alcotest.test_case "v2 and v3 files refused, cache rebuilds" `Quick
      test_old_formats_refused;
    Alcotest.test_case "corrupt array shapes refused on load" `Quick
      test_corrupt_shapes_rejected;
  ]

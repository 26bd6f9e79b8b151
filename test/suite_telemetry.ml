(* The telemetry registry: trace spans (balance, JSON well-formedness,
   agreement with the phase timers), metric histograms (identities
   against the matcher counters, exactness and reset under a Parallel
   pool), the level gating each instrument, the sidecar writers, the
   --profile text format, instruction provenance (--explain), and the
   report guards. *)

module Tree = Gg_ir.Tree
module Insn = Gg_ir.Insn
module Driver = Gg_codegen.Driver
module Sema = Gg_frontc.Sema
module Corpus = Gg_frontc.Corpus
module Telemetry = Gg_profile.Telemetry
module Json = Gg_profile.Json

let tables = Driver.default_tables

(* each fixed program declares its own globals/main, so lower them
   separately and compile them in sequence *)
let corpus_programs =
  lazy (List.map (fun (_, src) -> Sema.compile src) Corpus.fixed_programs)

let compile ?(options = Driver.default_options) ?(jobs = 1) prog =
  Driver.compile_program ~options ~tables:(Lazy.force tables) ~jobs prog

let compile_corpus ?options ?(jobs = 1) () =
  List.map (fun p -> compile ?options ~jobs p) (Lazy.force corpus_programs)

(* [at level f]: [f] on a cleared registry at [level] *)
let at level f =
  Telemetry.with_level level (fun () ->
      Telemetry.reset ();
      f ())

(* the corpus compiled at [level], and the registry it left *)
let corpus_at ?(jobs = 1) level =
  at level (fun () ->
      ignore (compile_corpus ~jobs ());
      Telemetry.snapshot ())

let histo (snap : Telemetry.snapshot) name =
  match List.find_opt (fun v -> v.Telemetry.hv_name = name) snap.histograms with
  | Some v -> v
  | None -> Alcotest.failf "histogram %s missing from the snapshot" name

let events (snap : Telemetry.snapshot) = Lazy.force snap.events

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* -- a minimal JSON validator ------------------------------------------------ *)

exception Bad_json of string

let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Bad_json (Fmt.str "%s at offset %d" m !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Fmt.str "expected %c" c)
  in
  let literal w =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    then pos := !pos + String.length w
    else fail ("expected " ^ w)
  in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done
        | _ -> fail "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let number () =
    let digits () =
      let d = ref 0 in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          incr d;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if !d = 0 then fail "expected digit"
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with
    | Some '.' ->
      advance ();
      digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else
        let rec members () =
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else
        let rec elements () =
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ()
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "expected a value");
    skip_ws ()
  in
  value ();
  if !pos <> n then fail "trailing garbage"

let check_json name s =
  match validate_json s with
  | () -> ()
  | exception Bad_json m -> Alcotest.failf "%s: invalid JSON: %s" name m

(* -- report guards ------------------------------------------------------------- *)

let test_report_no_nan_on_empty () =
  (* counters but no timers: the share column must print 0%, not nan *)
  let text =
    at Timers (fun () ->
        let c = Telemetry.counters () in
        c.matcher_runs <- c.matcher_runs + 1;
        Fmt.str "%a" Telemetry.pp_profile (Telemetry.snapshot ()))
  in
  Alcotest.(check bool) "report is non-empty" true (String.length text > 0);
  let lower = String.lowercase_ascii text in
  Alcotest.(check bool) "no nan in report" false (contains ~sub:"nan" lower);
  Alcotest.(check bool) "no inf in report" false (contains ~sub:"inf" lower)

(* The phase table exactly as perfbench reads ggcc --profile: the rows
   after the "phase timings:" header, " %s %f ms" each, up to "total". *)
let test_profile_format_pinned () =
  let text =
    at Timers (fun () ->
        ignore (compile_corpus ());
        Fmt.str "%a" Telemetry.pp_profile (Telemetry.snapshot ()))
  in
  let rec rows acc = function
    | [] -> Alcotest.fail "no total row"
    | l :: rest -> (
      match Scanf.sscanf l " %s %f ms" (fun n ms -> (n, ms)) with
      | "total", total -> (List.rev acc, total)
      | row -> rows (row :: acc) rest
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
        Alcotest.failf "unparseable phase row %S" l)
  in
  let rec find = function
    | [] -> Alcotest.fail "no phase timings header"
    | "phase timings:" :: rest -> rows [] rest
    | _ :: rest -> find rest
  in
  let phases, total = find (String.split_on_char '\n' text) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is a row") true (List.mem_assoc name phases))
    [ "phase1.transform"; "phase2.match" ];
  (* every row is rounded to 0.01 ms *)
  let sum = List.fold_left (fun a (_, ms) -> a +. ms) 0. phases in
  let slack = 0.005 *. float_of_int (List.length phases + 1) in
  if Float.abs (sum -. total) > slack then
    Alcotest.failf "rows sum to %.2f ms, total says %.2f ms" sum total

(* -- the level ------------------------------------------------------------------ *)

let test_levels_arm_their_instruments () =
  let recorded level =
    let snap = corpus_at level in
    ( (histo snap "matcher.reductions_per_tree").hv_count > 0,
      snap.phases <> [],
      events snap <> [] )
  in
  let check level expected =
    let h, p, e = recorded level in
    let name =
      match level with
      | Telemetry.Off -> "off"
      | Counters -> "counters"
      | Timers -> "timers"
      | Trace -> "trace"
    in
    Alcotest.(check (list bool)) (name ^ ": histograms, phase rows, events")
      expected [ h; p; e ]
  in
  check Off [ false; false; false ];
  check Counters [ true; false; false ];
  check Timers [ true; true; false ];
  check Trace [ true; true; true ];
  (* the production counts are on at every level *)
  let (), fired =
    Telemetry.with_level Off (fun () ->
        Telemetry.counting_productions (fun () -> ignore (compile_corpus ())))
  in
  Alcotest.(check bool) "productions counted at Off" true (fired <> []);
  (* with_level puts the previous level back, also after a raise *)
  Telemetry.with_level Timers (fun () ->
      (try Telemetry.with_level Trace (fun () -> raise Exit) with Exit -> ());
      Alcotest.(check bool) "level restored after a raise" true
        (Telemetry.level () = Timers))

(* -- trace spans ------------------------------------------------------------- *)

let test_trace_json_well_formed () =
  check_json "trace export"
    (Json.to_string (Telemetry.trace_json (corpus_at ~jobs:4 Trace)))

let test_trace_spans_balanced () =
  let events = events (corpus_at ~jobs:4 Trace) in
  Alcotest.(check bool) "events recorded" true (events <> []);
  (* per track, B/E edges nest like parentheses and end balanced *)
  let tracks = Hashtbl.create 8 in
  List.iter
    (fun (e : Telemetry.event) ->
      let stack =
        match Hashtbl.find_opt tracks e.ev_track with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.add tracks e.ev_track s;
          s
      in
      match e.ev_ph with
      | B -> stack := e.ev_name :: !stack
      | E -> (
        match !stack with
        | top :: rest when top = e.ev_name -> stack := rest
        | top :: _ ->
          Alcotest.failf "track %d: end of %S inside %S" e.ev_track e.ev_name top
        | [] ->
          Alcotest.failf "track %d: end of %S with no open span" e.ev_track
            e.ev_name))
    events;
  Hashtbl.iter
    (fun track stack ->
      if !stack <> [] then
        Alcotest.failf "track %d: %d unclosed span(s)" track (List.length !stack))
    tracks;
  (* timestamps are monotone within each track *)
  let last = Hashtbl.create 8 in
  List.iter
    (fun (e : Telemetry.event) ->
      (match Hashtbl.find_opt last e.ev_track with
      | Some t when e.ev_ts < t -. 1e-6 ->
        Alcotest.failf "track %d: time goes backwards" e.ev_track
      | _ -> ());
      Hashtbl.replace last e.ev_track e.ev_ts)
    events

(* total seconds covered by spans named [name], over every track *)
let span_seconds events name =
  let open_at = Hashtbl.create 8 in
  List.fold_left
    (fun total (e : Telemetry.event) ->
      if e.ev_name <> name then total
      else
        match e.ev_ph with
        | B ->
          Hashtbl.replace open_at e.ev_track e.ev_ts;
          total
        | E -> (
          match Hashtbl.find_opt open_at e.ev_track with
          | Some t0 -> total +. ((e.ev_ts -. t0) /. 1e6)
          | None -> total))
    0. events

let test_trace_agrees_with_profile () =
  let snap = corpus_at ~jobs:4 Trace in
  let agree name =
    let timer =
      List.fold_left (fun a (n, s, _) -> if n = name then s else a) 0. snap.phases
    in
    let spans = span_seconds (events snap) name in
    Alcotest.(check bool) (name ^ " was timed") true (timer > 0.);
    (* a leaf span feeds the phase table and its two trace edges from
       one pair of clock reads: only float summation order differs *)
    if Float.abs (timer -. spans) > (1e-6 *. timer) +. 1e-9 then
      Alcotest.failf "%s: timer %.9fs vs spans %.9fs" name timer spans
  in
  agree "phase2.match";
  agree "phase1.transform"

(* -- metric histograms ------------------------------------------------------- *)

let test_histograms_match_counters () =
  let snap = corpus_at Counters in
  let totals = snap.totals in
  let funcs =
    List.fold_left
      (fun a p -> a + List.length p.Tree.funcs)
      0
      (Lazy.force corpus_programs)
  in
  let reds = histo snap "matcher.reductions_per_tree" in
  Alcotest.(check int)
    "tree_reductions count = matcher runs" totals.matcher_runs reds.hv_count;
  Alcotest.(check int) "tree_reductions sum = total reduces" totals.reduces
    reds.hv_sum;
  Alcotest.(check int)
    "tree_match_us count = matcher runs" totals.matcher_runs
    (histo snap "matcher.tree_match_us").hv_count;
  Alcotest.(check int)
    "stack_high_water count = matcher runs" totals.matcher_runs
    (histo snap "matcher.stack_high_water").hv_count;
  Alcotest.(check int) "insns_per_func count = functions" funcs
    (histo snap "codegen.insns_per_func").hv_count;
  Alcotest.(check int) "production counts sum to reduces" totals.reduces
    (Array.fold_left ( + ) 0 totals.fired)

let test_buckets_sum_to_count () =
  let snap = corpus_at Counters in
  Alcotest.(check bool) "histograms registered" true
    (List.length snap.histograms >= 4);
  List.iter
    (fun (v : Telemetry.histo_view) ->
      Alcotest.(check int) (v.hv_name ^ ": buckets sum to count") v.hv_count
        (List.fold_left (fun a (_, c) -> a + c) 0 v.hv_buckets))
    snap.histograms

let test_metrics_exact_under_parallelism () =
  let take jobs =
    let snap = corpus_at ~jobs Counters in
    List.map
      (fun name ->
        let v = histo snap name in
        (name, v.hv_count, v.hv_buckets))
      [ "matcher.reductions_per_tree"; "matcher.stack_high_water";
        "codegen.insns_per_func" ]
  in
  (* tree_match_us is wall time, hence not deterministic across -j: the
     deterministic histograms must merge to identical shards *)
  let s1 = take 1 in
  Alcotest.(check bool) "j4 histograms = j1" true (take 4 = s1);
  Alcotest.(check bool) "j8 histograms = j1" true (take 8 = s1)

let test_metrics_reset () =
  (* every instrument of every shard: counters, production counts,
     named counters, histograms, phase timers, trace events *)
  let snap =
    at Trace (fun () ->
        ignore (compile_corpus ~jobs:4 ());
        Telemetry.incr "reset.test";
        Telemetry.reset ();
        Telemetry.snapshot ())
  in
  Alcotest.(check int) "no matcher runs after reset" 0 snap.totals.matcher_runs;
  Alcotest.(check int) "no production counts after reset" 0
    (Array.fold_left ( + ) 0 snap.totals.fired);
  List.iter
    (fun (v : Telemetry.histo_view) ->
      Alcotest.(check int) (v.hv_name ^ " count after reset") 0 v.hv_count)
    snap.histograms;
  Alcotest.(check bool) "no live named counters after reset" true
    (List.for_all (fun (_, v) -> v = 0) snap.named);
  Alcotest.(check int) "no phase rows after reset" 0 (List.length snap.phases);
  Alcotest.(check int) "no events after reset" 0 (List.length (events snap))

let test_metrics_json_well_formed () =
  check_json "metrics sidecar"
    (at Timers (fun () ->
         ignore (compile_corpus ());
         Telemetry.metrics_doc ()))

(* -- quantiles, snapshots, expositions (the ops plane's read API) ------------ *)

let test_quantile_properties () =
  let quantiles =
    at Counters (fun () ->
        let h = Telemetry.queue_wait_us in
        Alcotest.(check (float 0.)) "empty histogram quantile is 0" 0.
          (Telemetry.quantile (Telemetry.view h) 0.99);
        for v = 1 to 1000 do
          Telemetry.observe h v
        done;
        List.map (Telemetry.quantile (Telemetry.view h)) [ 0.50; 0.90; 0.99; 1.0 ])
  in
  match quantiles with
  | [ q50; q90; q99; q100 ] ->
    Alcotest.(check bool) "quantiles are positive" true (q50 > 0.);
    Alcotest.(check bool) "quantiles are monotone in q" true
      (q50 <= q90 && q90 <= q99 && q99 <= q100);
    Alcotest.(check bool) "no quantile exceeds the observed max" true
      (q100 <= 1000.);
    (* uniform 1..1000: linear interpolation inside fixed buckets keeps
       the estimates within a coarse band of the true quantiles *)
    Alcotest.(check bool)
      (Fmt.str "p50 %.1f within [250, 750]" q50)
      true
      (q50 >= 250. && q50 <= 750.)
  | _ -> assert false

let test_quantile_deterministic () =
  (* same observations -> byte-identical quantiles, whether read live
     or at shutdown: this is what lets the admin stats document match
     the sidecar exactly *)
  at Counters @@ fun () ->
  List.iter
    (Telemetry.observe Telemetry.request_latency_us)
    [ 3; 14; 159; 2653; 58979; 323846; 2643383 ];
  let q () = Telemetry.quantile (Telemetry.view Telemetry.request_latency_us) 0.99 in
  let a = q () in
  Alcotest.(check (float 0.)) "two reads agree exactly" a (q ())

let test_snapshot_exact_under_parallelism () =
  (* the deterministic instruments must snapshot identically at -j1 and
     -j4 once the domains have joined — same counts, same buckets, same
     quantiles *)
  let take jobs =
    let snap = corpus_at ~jobs Timers in
    ( List.filter
        (fun (k, _) -> String.length k > 8 && String.sub k 0 8 = "matcher.")
        (Telemetry.counter_list snap),
      List.map (histo snap)
        [ "matcher.reductions_per_tree"; "matcher.stack_high_water";
          "codegen.insns_per_func" ] )
  in
  let c1, h1 = take 1 in
  let c4, h4 = take 4 in
  Alcotest.(check bool) "matcher counters equal at -j4" true (c1 = c4);
  List.iter2
    (fun (a : Telemetry.histo_view) (b : Telemetry.histo_view) ->
      Alcotest.(check int) (a.hv_name ^ " count") a.hv_count b.hv_count;
      Alcotest.(check bool) (a.hv_name ^ " buckets") true
        (a.hv_buckets = b.hv_buckets);
      Alcotest.(check (float 0.)) (a.hv_name ^ " p50") a.hv_p50 b.hv_p50;
      Alcotest.(check (float 0.)) (a.hv_name ^ " p99") a.hv_p99 b.hv_p99)
    h1 h4

let test_snapshot_safe_under_concurrent_observers () =
  (* snapshots taken while 4 domains are still observing: never a
     crash, and successive snapshots are monotone (shard counters only
     grow) *)
  at Counters @@ fun () ->
  let stop = Atomic.make false in
  let pool =
    Gg_codegen.Parallel.spawn_pool ~domains:4 (fun _ ->
        while not (Atomic.get stop) do
          Telemetry.observe Telemetry.queue_wait_us 17;
          Telemetry.incr "concurrent.test"
        done)
  in
  let last = ref 0 in
  for _ = 1 to 50 do
    let c = (histo (Telemetry.snapshot ()) "server.queue_wait_us").hv_count in
    if c < !last then Alcotest.failf "snapshot went backwards: %d after %d" c !last;
    last := c
  done;
  Atomic.set stop true;
  Gg_codegen.Parallel.join_pool pool;
  (* quiescent now: the final snapshot is exact and internally
     consistent — buckets sum to the count, the named counter matches *)
  let snap = Telemetry.snapshot () in
  let hv = histo snap "server.queue_wait_us" in
  Alcotest.(check int) "buckets sum to count" hv.hv_count
    (List.fold_left (fun a (_, c) -> a + c) 0 hv.hv_buckets);
  Alcotest.(check bool) "the named counter landed" true
    (List.assoc_opt "concurrent.test" snap.named = Some hv.hv_count)

let test_json_sidecar_has_quantiles () =
  let doc =
    at Counters (fun () ->
        ignore (compile_corpus ());
        Telemetry.metrics_doc ())
  in
  let histos =
    Option.value ~default:[]
      (Option.bind (Json.member "histograms" (Json.parse doc)) Json.to_list)
  in
  Alcotest.(check bool) "histograms present" true (histos <> []);
  List.iter
    (fun h ->
      let name =
        Option.value ~default:"?" (Option.bind (Json.member "name" h) Json.to_str)
      in
      let p50 = Option.bind (Json.member "p50" h) Json.to_float in
      let p99 = Option.bind (Json.member "p99" h) Json.to_float in
      match (p50, p99) with
      | Some p50, Some p99 ->
        Alcotest.(check bool) (name ^ ": p50 <= p99") true (p50 <= p99)
      | _ -> Alcotest.failf "%s: missing p50/p99" name)
    histos

let test_prometheus_exposition () =
  let doc = Telemetry.prometheus (corpus_at Counters) in
  let lines = String.split_on_char '\n' doc in
  Alcotest.(check bool) "counters are typed" true
    (List.mem "# TYPE ggcg_matcher_runs counter" lines);
  Alcotest.(check bool) "histograms are typed" true
    (List.mem "# TYPE ggcg_matcher_reductions_per_tree histogram" lines);
  (* per histogram: cumulative buckets end at +Inf == _count *)
  let value_of prefix =
    List.filter_map
      (fun l ->
        if
          String.length l > String.length prefix
          && String.sub l 0 (String.length prefix) = prefix
        then
          int_of_string_opt
            (String.trim
               (String.sub l (String.length prefix)
                  (String.length l - String.length prefix)))
        else None)
      lines
  in
  (match value_of "ggcg_matcher_reductions_per_tree_bucket{le=\"+Inf\"} " with
  | [ inf ] -> (
    match value_of "ggcg_matcher_reductions_per_tree_count " with
    | [ count ] -> Alcotest.(check int) "+Inf bucket equals _count" count inf
    | other -> Alcotest.failf "%d _count lines" (List.length other))
  | other -> Alcotest.failf "%d +Inf bucket lines" (List.length other));
  (* cumulative bucket counts never decrease *)
  let buckets =
    List.filter_map
      (fun l ->
        let p = "ggcg_matcher_reductions_per_tree_bucket{le=" in
        if String.length l > String.length p && String.sub l 0 (String.length p) = p
        then
          match String.rindex_opt l ' ' with
          | Some i -> int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
          | None -> None
        else None)
      lines
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative buckets are monotone" true (monotone buckets)

let temp_path suffix =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Fmt.str "ggcg-test-%d-%s" (Unix.getpid ()) suffix)

(* files in [path]'s directory whose name extends [path]'s: a torn
   write's [.tmp] sibling *)
let leftovers path =
  let dir = Filename.dirname path and base = Filename.basename path in
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f ->
         String.length f > String.length base
         && String.sub f 0 (String.length base) = base)

let test_atomic_write_leaves_no_tmp () =
  let path = temp_path "metrics.json" in
  at Timers (fun () -> Telemetry.write_metrics path);
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  check_json "atomic snapshot" (In_channel.with_open_text path In_channel.input_all);
  (* the temp sibling is renamed away, never left behind *)
  Alcotest.(check (list string)) "no tmp leftovers" [] (leftovers path)

let test_outputs_flushed_on_raise () =
  (* a run that fails is the one whose telemetry is wanted: both
     sidecars are complete documents, and no .tmp sibling remains *)
  let metrics_out = temp_path "raise-metrics.json"
  and trace_out = temp_path "raise-trace.json" in
  let before = Telemetry.level () in
  Fun.protect ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ metrics_out; trace_out ])
  @@ fun () ->
  (match
     Telemetry.with_outputs ~metrics_out ~trace_out (fun () ->
         ignore (compile_corpus ());
         failwith "compile failed")
   with
  | () -> Alcotest.fail "the failure was swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "level restored" true (Telemetry.level () = before);
  let parse path = Json.parse_file path in
  let runs =
    Option.bind (Json.member "counters" (parse metrics_out)) (Json.member "matcher.runs")
  in
  Alcotest.(check bool) "metrics sidecar counted the matcher runs" true
    (Option.bind runs Json.to_int > Some 0);
  let evs = Option.bind (Json.member "traceEvents" (parse trace_out)) Json.to_list in
  Alcotest.(check bool) "trace sidecar holds events" true
    (Option.fold ~none:false ~some:(fun l -> l <> []) evs);
  Alcotest.(check (list string)) "no tmp leftovers" [] (leftovers metrics_out @ leftovers trace_out)

(* -- the Json reader the ops tools are built on ------------------------------- *)

let test_json_parser_roundtrips () =
  let cases =
    [
      "null";
      "true";
      "[1,2.5,-3,\"x\"]";
      "{\"a\":{\"b\":[]},\"c\":\"\\u0041\\n\"}";
      "{\"nested\":[{\"deep\":[[[1]]]}]}";
      "[1760000000123456.8,0.000123456789,1234567.891]";
    ]
  in
  List.iter
    (fun s ->
      let j = Json.parse s in
      let j' = Json.parse (Json.to_string j) in
      Alcotest.(check bool) (s ^ " survives print/reparse") true (j = j'))
    cases;
  (* member order and accessors *)
  let j = Json.parse "{\"b\": 2, \"a\": 1}" in
  Alcotest.(check (option int)) "member lookup" (Some 1)
    (Option.bind (Json.member "a" j) Json.to_int);
  Alcotest.(check string) "order preserved" "{\"b\":2,\"a\":1}" (Json.to_string j)

let test_json_parser_rejects () =
  List.iter
    (fun s ->
      match Json.parse s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Json.Parse_error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]

(* -- instruction provenance (--explain) -------------------------------------- *)

let explain = { Driver.default_options with Driver.explain = true }

let test_explain_provenance () =
  let outs = compile_corpus ~options:explain () in
  List.iter
    (fun (cf : Driver.compiled_func) ->
      Alcotest.(check int)
        (cf.Driver.cf_name ^ ": provenance parallel to instructions")
        (List.length cf.Driver.cf_insns)
        (List.length cf.Driver.cf_prov);
      List.iter2
        (fun insn (_line, pids, _mark) ->
          match insn with
          | Insn.Insn _ ->
            if pids = [] then
              Alcotest.failf "%s: instruction %s carries no production ids"
                cf.Driver.cf_name (Insn.assembly insn)
          | _ -> ())
        cf.Driver.cf_insns cf.Driver.cf_prov)
    (List.concat_map (fun o -> o.Driver.funcs) outs);
  (* and the rendering carries the annotations *)
  let listing =
    String.concat "" (List.map (Driver.render_explained (Lazy.force tables)) outs)
  in
  Alcotest.(check bool) "listing has provenance comments" true
    (contains ~sub:"\t# L" listing)

let test_provenance_off_is_empty () =
  let outs = compile_corpus () in
  List.iter
    (fun (cf : Driver.compiled_func) ->
      Alcotest.(check int)
        (cf.Driver.cf_name ^ ": no provenance when disabled")
        0
        (List.length cf.Driver.cf_prov))
    (List.concat_map (fun o -> o.Driver.funcs) outs)

(* -- assembly parity --------------------------------------------------------- *)

let test_assembly_unchanged_by_telemetry () =
  let asm outs = String.concat "" (List.map (fun o -> o.Driver.assembly) outs) in
  let plain = at Off (fun () -> asm (compile_corpus ())) in
  let instrumented =
    at Trace (fun () -> asm (compile_corpus ~options:explain ~jobs:4 ()))
  in
  Alcotest.(check string) "telemetry does not change the code" plain instrumented

let suite =
  [
    Alcotest.test_case "profile report: 0%%, not nan, on empty timers" `Quick
      test_report_no_nan_on_empty;
    Alcotest.test_case "profile report: the phase table perfbench parses"
      `Quick test_profile_format_pinned;
    Alcotest.test_case "with_level arms exactly its own instruments" `Quick
      test_levels_arm_their_instruments;
    Alcotest.test_case "trace export is well-formed JSON" `Quick
      test_trace_json_well_formed;
    Alcotest.test_case "trace spans balance and nest per track" `Quick
      test_trace_spans_balanced;
    Alcotest.test_case "trace span durations agree with Profile.seconds"
      `Quick test_trace_agrees_with_profile;
    Alcotest.test_case "histogram counts/sums match Profile counters" `Quick
      test_histograms_match_counters;
    Alcotest.test_case "histogram buckets sum to count" `Quick
      test_buckets_sum_to_count;
    Alcotest.test_case "histograms exact under -j" `Quick
      test_metrics_exact_under_parallelism;
    Alcotest.test_case "Metrics.reset clears every shard" `Quick
      test_metrics_reset;
    Alcotest.test_case "metrics sidecar is well-formed JSON" `Quick
      test_metrics_json_well_formed;
    Alcotest.test_case "quantile: empty, monotone, bounded" `Quick
      test_quantile_properties;
    Alcotest.test_case "quantile estimates are deterministic" `Quick
      test_quantile_deterministic;
    Alcotest.test_case "Metrics.snapshot exact at -j4" `Quick
      test_snapshot_exact_under_parallelism;
    Alcotest.test_case "Metrics.snapshot safe under concurrent observers"
      `Quick test_snapshot_safe_under_concurrent_observers;
    Alcotest.test_case "metrics sidecar carries p50/p99" `Quick
      test_json_sidecar_has_quantiles;
    Alcotest.test_case "prometheus exposition is well-formed" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "write_json_atomic leaves no tmp file" `Quick
      test_atomic_write_leaves_no_tmp;
    Alcotest.test_case "with_outputs writes both sidecars when f raises"
      `Quick test_outputs_flushed_on_raise;
    Alcotest.test_case "Json parser round-trips" `Quick
      test_json_parser_roundtrips;
    Alcotest.test_case "Json parser rejects malformed input" `Quick
      test_json_parser_rejects;
    Alcotest.test_case "--explain: every instruction carries production ids"
      `Quick test_explain_provenance;
    Alcotest.test_case "provenance is empty when disabled" `Quick
      test_provenance_off_is_empty;
    Alcotest.test_case "assembly identical with telemetry on" `Quick
      test_assembly_unchanged_by_telemetry;
  ]

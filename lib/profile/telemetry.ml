(* The one telemetry registry: one shard per domain holding every
   instrument, one level gating them, and expositions that are views
   of one merged snapshot. *)

type level = Off | Counters | Timers | Trace

let rank = function Off -> 0 | Counters -> 1 | Timers -> 2 | Trace -> 3

(* a plain ref: worker domains read it once per tree or span, and a
   momentarily stale level costs one unrecorded observation *)
let current = ref Off
let level () = !current
let set_level l = current := l
let at_least l = rank !current >= rank l

let with_level l f =
  let saved = !current in
  current := l;
  Fun.protect ~finally:(fun () -> current := saved) f

(* -- the shard ------------------------------------------------------------ *)

(* The trailing [_pad] fields stretch the record past a cache line (16
   words with the header), so two domains' counter records allocated
   back to back never share a line: the matcher bumps these fields
   millions of times per compile. *)
type counters = {
  mutable shifts : int;
  mutable reduces : int;
  mutable semantic_choices : int;
  mutable matcher_runs : int;
  mutable rejects : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable fired : int array;
  mutable _pad0 : int;
  mutable _pad1 : int;
  mutable _pad2 : int;
  mutable _pad3 : int;
  mutable _pad4 : int;
  mutable _pad5 : int;
  mutable _pad6 : int;
}

let fresh_counters () =
  {
    shifts = 0;
    reduces = 0;
    semantic_choices = 0;
    matcher_runs = 0;
    rejects = 0;
    cache_hits = 0;
    cache_misses = 0;
    fired = [||];
    _pad0 = 0;
    _pad1 = 0;
    _pad2 = 0;
    _pad3 = 0;
    _pad4 = 0;
    _pad5 = 0;
    _pad6 = 0;
  }

type histogram = {
  id : int;
  h_name : string;
  h_unit : string;
  bounds : int array;  (* strictly increasing inclusive upper bounds *)
}

type timer = { mutable secs : float; mutable calls : int }
type phase = B | E

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts : float;
  ev_track : int;
  ev_args : (string * string) list;
}

type shard = {
  c : counters;
  named : (string, int) Hashtbl.t;
  buckets : int array array;  (* per histogram: |bounds|+1, overflow last *)
  counts : int array;  (* per histogram *)
  sums : int array;
  maxs : int array;
  timers : (string, timer) Hashtbl.t;  (* leaf phases only *)
  track : int;  (* the recording domain's id *)
  mutable events : event list;  (* newest first *)
}

(* -- the standard histograms ---------------------------------------------- *)

(* registered at module initialisation, before any shard exists, so
   every shard's arrays are sized for all of them *)
let histograms = ref []

let register ~unit:h_unit name bounds =
  let h = { id = List.length !histograms; h_name = name; h_unit; bounds } in
  histograms := !histograms @ [ h ];
  h

let tree_match_us =
  register ~unit:"us" "matcher.tree_match_us"
    [| 1; 2; 5; 10; 20; 50; 100; 200; 500; 1000; 5000 |]

let tree_reductions =
  register ~unit:"reductions" "matcher.reductions_per_tree"
    [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 |]

let stack_high_water =
  register ~unit:"slots" "matcher.stack_high_water"
    [| 2; 4; 8; 16; 32; 64; 128; 256 |]

let insns_per_func =
  register ~unit:"insns" "codegen.insns_per_func"
    [| 1; 2; 5; 10; 20; 50; 100; 200; 500; 1000 |]

let spills_per_func =
  register ~unit:"spills" "codegen.spills_per_func" [| 0; 1; 2; 5; 10; 20; 50 |]

let queue_wait_us =
  register ~unit:"us" "server.queue_wait_us"
    [| 10; 20; 50; 100; 200; 500; 1000; 2000; 5000; 10_000; 50_000 |]

let request_latency_us =
  register ~unit:"us" "server.request_latency_us"
    [| 100; 200; 500; 1000; 2000; 5000; 10_000; 20_000; 50_000; 100_000; 500_000 |]

(* -- the registry ----------------------------------------------------------- *)

let registry : shard list ref = ref []
let registry_lock = Mutex.create ()

(* Slack after the live prefix of the small per-histogram arrays, which
   would otherwise pack two domains' values into one cache line. *)
let pad = 8

let new_shard () =
  let n = List.length !histograms in
  let s =
    {
      c = fresh_counters ();
      named = Hashtbl.create 16;
      buckets =
        Array.of_list
          (List.map
             (fun h -> Array.make (Array.length h.bounds + 1 + pad) 0)
             !histograms);
      counts = Array.make (n + pad) 0;
      sums = Array.make (n + pad) 0;
      maxs = Array.make (n + pad) 0;
      timers = Hashtbl.create 16;
      track = (Domain.self () :> int);
      events = [];
    }
  in
  Mutex.protect registry_lock (fun () -> registry := s :: !registry);
  s

let shard_key = Domain.DLS.new_key new_shard
let shard () = Domain.DLS.get shard_key

(* oldest first; a shard another domain is writing reads momentarily
   stale, nothing worse *)
let shards () = List.rev (Mutex.protect registry_lock (fun () -> !registry))

let reset () =
  List.iter
    (fun s ->
      let c = s.c in
      c.shifts <- 0;
      c.reduces <- 0;
      c.semantic_choices <- 0;
      c.matcher_runs <- 0;
      c.rejects <- 0;
      c.cache_hits <- 0;
      c.cache_misses <- 0;
      Array.fill c.fired 0 (Array.length c.fired) 0;
      Hashtbl.reset s.named;
      Array.iter (fun b -> Array.fill b 0 (Array.length b) 0) s.buckets;
      List.iter (fun a -> Array.fill a 0 (Array.length a) 0) [ s.counts; s.sums; s.maxs ];
      Hashtbl.reset s.timers;
      s.events <- [])
    (shards ())

(* -- recording ------------------------------------------------------------ *)

let counters () = (shard ()).c

let count_production c pid =
  let f = c.fired in
  if pid < Array.length f then Array.unsafe_set f pid (Array.unsafe_get f pid + 1)
  else begin
    let g = Array.make (max (pid + 1) (max 256 (2 * Array.length f))) 0 in
    Array.blit f 0 g 0 (Array.length f);
    g.(pid) <- 1;
    c.fired <- g
  end

let incr ?(by = 1) name =
  let named = (shard ()).named in
  Hashtbl.replace named name (by + Option.value ~default:0 (Hashtbl.find_opt named name))

let observe h v =
  if at_least Counters then begin
    let s = shard () in
    let b = s.buckets.(h.id) in
    let n = Array.length h.bounds in
    let rec index i = if i >= n || v <= h.bounds.(i) then i else index (i + 1) in
    let i = index 0 in
    b.(i) <- b.(i) + 1;
    s.counts.(h.id) <- s.counts.(h.id) + 1;
    s.sums.(h.id) <- s.sums.(h.id) + v;
    if v > s.maxs.(h.id) then s.maxs.(h.id) <- v
  end

(* one clock for the timers and the trace *)
let epoch = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

let add_time s name dt =
  match Hashtbl.find_opt s.timers name with
  | Some t ->
    t.secs <- t.secs +. dt;
    t.calls <- t.calls + 1
  | None -> Hashtbl.add s.timers name { secs = dt; calls = 1 }

let span ?(cat = "phase") ?(args = []) name f =
  let leaf = String.equal cat "phase" in
  match !current with
  | Off | Counters -> f ()
  | Timers when not leaf -> f ()
  | lvl ->
    let s = shard () in
    let tracing = lvl = Trace in
    let edge ph ts =
      if tracing then
        s.events <-
          {
            ev_name = name;
            ev_cat = cat;
            ev_ph = ph;
            ev_ts = ts;
            ev_track = s.track;
            ev_args = args;
          }
          :: s.events
    in
    let t0 = now_us () in
    edge B t0;
    Fun.protect f ~finally:(fun () ->
        let t1 = now_us () in
        edge E t1;
        if leaf then add_time s name ((t1 -. t0) /. 1e6))

(* -- merged reads ------------------------------------------------------------ *)

let totals () =
  let t = fresh_counters () in
  List.iter
    (fun { c; _ } ->
      t.shifts <- t.shifts + c.shifts;
      t.reduces <- t.reduces + c.reduces;
      t.semantic_choices <- t.semantic_choices + c.semantic_choices;
      t.matcher_runs <- t.matcher_runs + c.matcher_runs;
      t.rejects <- t.rejects + c.rejects;
      t.cache_hits <- t.cache_hits + c.cache_hits;
      t.cache_misses <- t.cache_misses + c.cache_misses;
      let f = c.fired in
      if Array.length f > Array.length t.fired then begin
        let g = Array.copy f in
        Array.iteri (fun i n -> g.(i) <- g.(i) + n) t.fired;
        t.fired <- g
      end
      else Array.iteri (fun i n -> t.fired.(i) <- t.fired.(i) + n) f)
    (shards ());
  t

let nonzero ?(before = [||]) after =
  let acc = ref [] in
  for pid = Array.length after - 1 downto 0 do
    let b = if pid < Array.length before then before.(pid) else 0 in
    if after.(pid) > b then acc := (pid, after.(pid) - b) :: !acc
  done;
  !acc

let counting_productions f =
  let before = (totals ()).fired in
  let r = f () in
  (r, nonzero ~before (totals ()).fired)

(* sums per key over every shard's table, sorted by key *)
let merge tables fold =
  let m = Hashtbl.create 16 in
  List.iter
    (Hashtbl.iter (fun k v -> Hashtbl.replace m k (fold (Hashtbl.find_opt m k) v)))
    tables;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [])

type histo_view = {
  hv_name : string;
  hv_unit : string;
  hv_count : int;
  hv_sum : int;
  hv_max : int;
  hv_buckets : (int option * int) list;
  hv_p50 : float;
  hv_p99 : float;
}

let quantile v q =
  if v.hv_count = 0 then 0.
  else begin
    let target = q *. float_of_int v.hv_count in
    let top = float_of_int v.hv_max in
    let rec go lo before = function
      | [] -> top
      | (bound, n) :: rest ->
        let after = before + n in
        let hi = match bound with Some b -> float_of_int b | None -> top in
        if float_of_int after >= target && n > 0 then
          lo +. ((target -. float_of_int before) /. float_of_int n *. (hi -. lo))
        else go hi after rest
    in
    Float.min (go 0. 0 v.hv_buckets) top
  end

let view h =
  let ss = shards () in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 ss in
  let nb = Array.length h.bounds + 1 in
  let v =
    {
      hv_name = h.h_name;
      hv_unit = h.h_unit;
      hv_count = total (fun s -> s.counts.(h.id));
      hv_sum = total (fun s -> s.sums.(h.id));
      hv_max = List.fold_left (fun acc s -> max acc s.maxs.(h.id)) 0 ss;
      hv_buckets =
        List.init nb (fun i ->
            ( (if i < nb - 1 then Some h.bounds.(i) else None),
              total (fun s -> s.buckets.(h.id).(i)) ));
      hv_p50 = 0.;
      hv_p99 = 0.;
    }
  in
  { v with hv_p50 = quantile v 0.50; hv_p99 = quantile v 0.99 }

type snapshot = {
  totals : counters;
  named : (string * int) list;
  phases : (string * float * int) list;
  histograms : histo_view list;
  events : event list Lazy.t;
}

let snapshot () =
  let ss = shards () in
  let add prev n = n + Option.value ~default:0 prev in
  let add_timer prev t =
    match prev with Some (s, c) -> (s +. t.secs, c + t.calls) | None -> (t.secs, t.calls)
  in
  {
    totals = totals ();
    named = merge (List.map (fun (s : shard) -> s.named) ss) add;
    phases =
      merge (List.map (fun s -> s.timers) ss) add_timer
      |> List.map (fun (n, (secs, calls)) -> (n, secs, calls))
      |> List.stable_sort (fun (_, a, _) (_, b, _) -> compare b a);
    histograms = List.map view !histograms;
    events =
      (let evs = List.map (fun (s : shard) -> s.events) ss in
       lazy (List.concat_map List.rev evs));
  }

let counter_list snap =
  let c = snap.totals in
  [
    ("matcher.runs", c.matcher_runs);
    ("matcher.shifts", c.shifts);
    ("matcher.reduces", c.reduces);
    ("matcher.semantic_choices", c.semantic_choices);
    ("matcher.rejects", c.rejects);
    ("tables.cache_hits", c.cache_hits);
    ("tables.cache_misses", c.cache_misses);
  ]
  @ snap.named

let shift_reduce_ratio c =
  if c.reduces = 0 then 0. else float_of_int c.shifts /. float_of_int c.reduces

(* -- expositions ---------------------------------------------------------------- *)

let pp_profile ppf snap =
  let total = List.fold_left (fun acc (_, t, _) -> acc +. t) 0. snap.phases in
  if snap.phases <> [] then begin
    Fmt.pf ppf "phase timings:@.";
    List.iter
      (fun (name, t, calls) ->
        Fmt.pf ppf "  %-20s %8.2f ms  %5.1f%%  (%d calls)@." name (t *. 1e3)
          (if total > 0. then 100. *. t /. total else 0.)
          calls)
      snap.phases;
    Fmt.pf ppf "  %-20s %8.2f ms@." "total" (total *. 1e3)
  end;
  let c = snap.totals in
  Fmt.pf ppf "matcher: %d runs, %d shifts, %d reduces, %d semantic choices, %d rejects@."
    c.matcher_runs c.shifts c.reduces c.semantic_choices c.rejects;
  Fmt.pf ppf "table cache: %d hits, %d misses@." c.cache_hits c.cache_misses

let pp_metrics ppf snap =
  Fmt.pf ppf "counters:@.";
  List.iter (fun (k, v) -> Fmt.pf ppf "  %-28s %10d@." k v) (counter_list snap);
  Fmt.pf ppf "  %-28s %10.3f@." "matcher.shift_reduce_ratio"
    (shift_reduce_ratio snap.totals);
  List.iter
    (fun v ->
      let n = v.hv_count in
      Fmt.pf ppf "histogram %s (count %d, mean %.1f %s, max %d):@." v.hv_name n
        (if n = 0 then 0. else float_of_int v.hv_sum /. float_of_int n)
        v.hv_unit v.hv_max;
      if n > 0 then
        List.iter
          (fun (le, k) ->
            let label = match le with Some b -> Fmt.str "<= %d" b | None -> "overflow" in
            Fmt.pf ppf "  %-10s %10d  %5.1f%%  %s@." label k
              (100. *. float_of_int k /. float_of_int n)
              (String.make (min 60 (60 * k / n)) '#'))
          v.hv_buckets)
    snap.histograms

let int n = Json.Num (float_of_int n)

let metrics_json snap =
  let histo v =
    Json.Obj
      [
        ("name", Str v.hv_name);
        ("unit", Str v.hv_unit);
        ("count", int v.hv_count);
        ("sum", int v.hv_sum);
        ("max", int v.hv_max);
        ("p50", Num v.hv_p50);
        ("p99", Num v.hv_p99);
        ( "buckets",
          Arr
            (List.map
               (fun (le, n) ->
                 Json.Obj [ ("le", Option.fold ~none:Json.Null ~some:int le); ("count", int n) ])
               v.hv_buckets) );
      ]
  in
  Json.Obj
    [
      ("counters", Obj (List.map (fun (k, v) -> (k, int v)) (counter_list snap)));
      ("ratios", Obj [ ("shift_reduce", Num (shift_reduce_ratio snap.totals)) ]);
      ( "phases",
        Arr
          (List.map
             (fun (n, secs, calls) ->
               Json.Obj [ ("name", Str n); ("seconds", Num secs); ("calls", int calls) ])
             snap.phases) );
      ("histograms", Arr (List.map histo snap.histograms));
    ]

let metrics_doc () = Json.to_string (metrics_json (snapshot ())) ^ "\n"

let trace_json snap =
  let evs = Lazy.force snap.events in
  let tracks = List.sort_uniq compare (List.map (fun e -> e.ev_track) evs) in
  let thread_name t =
    Json.Obj
      [
        ("name", Str "thread_name");
        ("ph", Str "M");
        ("pid", int 1);
        ("tid", int t);
        ("args", Obj [ ("name", Str (Printf.sprintf "domain %d" t)) ]);
      ]
  in
  let event e =
    Json.Obj
      ([
         ("name", Json.Str e.ev_name);
         ("cat", Str (if e.ev_cat = "" then "span" else e.ev_cat));
         ("ph", Str (match e.ev_ph with B -> "B" | E -> "E"));
         ("ts", Num (Float.round (e.ev_ts *. 1e3) /. 1e3));
         ("pid", int 1);
         ("tid", int e.ev_track);
       ]
      @
      if e.ev_args = [] then []
      else [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) e.ev_args)) ])
  in
  (* Chrome and Perfetto ignore unknown top-level members; epochUs lets
     mdgtool trace-merge put several processes on one time axis *)
  Json.Obj
    [
      ("epochUs", Num (epoch *. 1e6));
      ("traceEvents", Arr (List.map thread_name tracks @ List.map event evs));
      ("displayTimeUnit", Str "ms");
    ]

(* dots and slashes in instrument names become underscores *)
let prom_name name =
  "ggcg_"
  ^ String.map
      (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as ch -> ch | _ -> '_')
      name

let prometheus snap =
  let b = Buffer.create 2048 in
  let line fmt = Printf.bprintf b fmt in
  List.iter
    (fun (k, v) ->
      let n = prom_name k in
      line "# TYPE %s counter\n%s %d\n" n n v)
    (counter_list snap);
  List.iter
    (fun v ->
      let n = prom_name v.hv_name in
      line "# TYPE %s histogram\n" n;
      (* Prometheus buckets are cumulative and end at +Inf *)
      ignore
        (List.fold_left
           (fun cum (le, k) ->
             let cum = cum + k in
             line "%s_bucket{le=\"%s\"} %d\n" n
               (match le with Some v -> string_of_int v | None -> "+Inf")
               cum;
             cum)
           0 v.hv_buckets);
      line "%s_sum %d\n%s_count %d\n" n v.hv_sum n v.hv_count)
    snap.histograms;
  Buffer.contents b

let write_atomic path text =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  (match Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc text) with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path

let write_metrics path = write_atomic path (metrics_doc ())
let write_trace path = write_atomic path (Json.to_string (trace_json (snapshot ())) ^ "\n")

let with_outputs ?(profile = false) ?(metrics = false) ?metrics_out ?trace_out f =
  let wanted =
    List.filter_map
      (fun (asked, l) -> if asked then Some l else None)
      [
        (metrics, Counters);
        (profile || metrics_out <> None, Timers);
        (trace_out <> None, Trace);
      ]
  in
  let lvl = List.fold_left (fun a l -> if rank l > rank a then l else a) !current wanted in
  if wanted <> [] then reset ();
  let flush () =
    Option.iter write_metrics metrics_out;
    Option.iter write_trace trace_out
  in
  match with_level lvl f with
  | r ->
    if profile || metrics then begin
      let snap = snapshot () in
      if profile then Fmt.epr "%a" pp_profile snap;
      if metrics then Fmt.epr "%a" pp_metrics snap
    end;
    flush ();
    r
  | exception e ->
    (* a failing run is exactly the one whose telemetry is wanted *)
    let bt = Printexc.get_raw_backtrace () in
    (try flush () with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

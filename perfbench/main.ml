(* One measured run of one benchmark workload.

     main.exe --workload corpus|deep|cli|serve --seed N --seconds S
              --trace 0|1 --tmp DIR --bin DIR --out DIR

   run.py builds this program and the ggcc/ggccd binaries, makes the
   private scratch directory [--tmp] (table caches, sockets, sources)
   and removes it afterwards.  The last line of standard output is the
   result object: with --trace 0 the end-to-end metrics, with --trace 1
   the per-layer metrics of a traced run.  Lines before it are a human
   summary. *)

open Perfbench
module Backend = Gg_codegen.Backend
module Driver = Gg_codegen.Driver
module Targets = Gg_targets.Targets
module Transform = Gg_transform.Transform
module Matcher = Gg_matcher.Matcher
module Tables = Gg_tablegen.Tables
module Packed = Gg_tablegen.Packed
module Cache = Gg_tablegen.Cache
module Grammar = Gg_grammar.Grammar
module Parser = Gg_frontc.Parser
module Sema = Gg_frontc.Sema
module Pcc = Gg_pcc.Pcc
module Protocol = Gg_server.Protocol
module Client = Gg_server.Client
module Server = Gg_server.Server
module Tree = Gg_ir.Tree

let now = Unix.gettimeofday
let ms_since t0 = (now () -. t0) *. 1e3

let time f =
  let t0 = now () in
  let r = f () in
  (ms_since t0, r)

(* -- command line ---------------------------------------------------------- *)

let workload = ref ""
let seed = ref 0
let seconds = ref 10.
let traced = ref false
let tmp = ref ""
let bin = ref ""
let examples_dir = ref "examples/c"
let out_dir = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "corpus|deep|cli|serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1 per-layer run");
      ("--tmp", Arg.Set_string tmp, "DIR private scratch directory");
      ("--bin", Arg.Set_string bin, "DIR directory of ggcc.exe and ggccd.exe");
      ("--examples", Arg.Set_string examples_dir, "DIR the examples/c sources");
      ("--out", Arg.Set_string out_dir, "DIR where the traced run writes spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --tmp DIR --bin DIR"

let scratch rel = Filename.concat !tmp rel
let ggcc () = Filename.concat !bin "ggcc.exe"
let ggccd () = Filename.concat !bin "ggccd.exe"
let grammar_options = Driver.default_options.Driver.grammar

(* -- metrics ---------------------------------------------------------------- *)

let metrics = ref []

let metric name unit_ value =
  if not (Float.is_finite value) then
    failwith (Printf.sprintf "metric %s is not a finite number" name);
  metrics := (name, unit_, value) :: !metrics

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed =
  let ms = List.rev !metrics in
  List.iter (fun (n, u, v) -> Printf.printf "  %-28s %14.4f %s\n" n v u) ms;
  let body =
    List.map
      (fun (n, u, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      ms
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " body)

(* -- child processes --------------------------------------------------------- *)

external wait4 : int -> int * int = "perfbench_wait4"

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

let spawn ?stderr prog args =
  let null = Lazy.force devnull in
  Unix.create_process prog
    (Array.of_list (prog :: args))
    null null
    (Option.value stderr ~default:null)

(* Wall time, exit code and peak resident set (kB) of one child run to
   completion. *)
let run_child ?stderr prog args =
  let t0 = now () in
  let pid = spawn ?stderr prog args in
  let code, rss_kb = wait4 pid in
  (ms_since t0, code, rss_kb)

let vm_hwm_mb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Lower this process's VmHWM to its current resident set, so a later
   reading covers only what ran since. *)
let reset_hwm () = write_file "/proc/self/clear_refs" "5"

let use_cache dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Unix.putenv "GGCG_CACHE_DIR" dir

(* -- ggccd ------------------------------------------------------------------- *)

(* Every daemon this run started; whatever is still alive at exit is
   stopped, so no ggccd outlives the run. *)
let daemons = ref []

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.005;
      reap ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  daemons := List.filter (( <> ) pid) !daemons

let () = at_exit (fun () -> List.iter stop_daemon !daemons)

let start_daemon ~socket =
  let log =
    Unix.openfile (socket ^ ".log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let pid = spawn ~stderr:log (ggccd ()) [ "--socket"; socket ] in
  Unix.close log;
  daemons := pid :: !daemons;
  pid

let tiny_source = "int main() { return 0; }\n"

(* Block until the daemon [pid] answers a request for [target]. *)
let await_answer ~pid ~socket target =
  let deadline = now () +. 60. in
  let req = Protocol.request ~target tiny_source in
  let rec go () =
    match Client.compile ~retries:0 ~socket req with
    | Protocol.Asm _ -> ()
    | _ -> failwith "ggccd answered the start-up probe with an error"
    | exception Client.Server_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("ggccd exited during start-up; see " ^ socket ^ ".log"));
      if now () > deadline then failwith "ggccd did not answer within 60 s";
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* -- inputs and their verified references -------------------------------------- *)

type prepared = {
  input : Gen.input;
  prog : Tree.program;
  reference : string;  (** in-process assembly, verified by simulation *)
  lines : int;
  insns : int;
}

let options_for (i : Gen.input) =
  { Driver.default_options with Driver.regalloc = i.Gen.regalloc }

type references = {
  prepared : prepared array;
  problems : string list;  (** why a reference could not be trusted *)
  asm_lines : int;  (** over one pass of the inputs *)
  gg_text_lines : int;  (** text lines of every input's assembly ... *)
  pcc_text_lines : int;  (** ... and of PCC's VAX assembly for its program *)
  sim_cycles : int;  (** simulated cycles, every input *)
  gg_vax_cycles : int;  (** VAX stack-allocated inputs only ... *)
  pcc_cycles : int;  (** ... and the PCC baseline on the same programs *)
}

let text_lines s = List.length (String.split_on_char '\n' s) - 1

let prepare ~tables_of inputs =
  let interp_runs = Hashtbl.create 16 and pcc_runs = Hashtbl.create 16 in
  let memo tbl (i : Gen.input) f =
    match Hashtbl.find_opt tbl i.Gen.name with
    | Some r -> r
    | None ->
      let r = f () in
      Hashtbl.add tbl i.Gen.name r;
      r
  in
  let problems = ref [] and sim = ref 0 and gg = ref 0 and pcc = ref 0 in
  let gg_lines = ref 0 and pcc_lines = ref 0 in
  let problem name why = problems := (name ^ ": " ^ why) :: !problems in
  let prepared =
    List.map
      (fun (i : Gen.input) ->
        let prog = Sema.compile i.Gen.source in
        let out =
          Driver.compile_program ~options:(options_for i)
            ~tables:(tables_of i.Gen.target) prog
        in
        let reference = memo interp_runs i (fun () -> Check.interp prog) in
        let pcc_asm =
          memo pcc_runs i (fun () -> (Pcc.compile_program prog).Pcc.assembly)
        in
        gg_lines := !gg_lines + text_lines out.Driver.assembly;
        pcc_lines := !pcc_lines + text_lines pcc_asm;
        (match
           Check.against_interp ~target:i.Gen.target ~reference prog
             out.Driver.assembly
         with
        | Error why -> problem i.Gen.name why
        | Ok cycles ->
          sim := !sim + cycles;
          if i.Gen.target = Backend.Vax && i.Gen.regalloc = Driver.Stack then begin
            match
              Check.against_interp ~target:Backend.Vax ~reference prog pcc_asm
            with
            | Ok c ->
              gg := !gg + cycles;
              pcc := !pcc + c
            | Error why -> problem (i.Gen.name ^ " (pcc)") why
          end);
        {
          input = i;
          prog;
          reference = out.Driver.assembly;
          lines = Driver.total_lines out;
          insns =
            List.fold_left
              (fun n f -> n + List.length f.Driver.cf_insns)
              0 out.Driver.funcs;
        })
      inputs
  in
  {
    prepared = Array.of_list prepared;
    problems = List.rev !problems;
    asm_lines = List.fold_left (fun n p -> n + p.lines) 0 prepared;
    gg_text_lines = !gg_lines;
    pcc_text_lines = !pcc_lines;
    sim_cycles = !sim;
    gg_vax_cycles = !gg;
    pcc_cycles = !pcc;
  }

(* The paper's T-TIME ratio on the workload's own programs.  A pass
   compiles every lowered program with GG and then PCC, each from a
   collected heap as in the corpus loop, and divides the two sums; the
   median over the passes is reported.  A pass is short, so a change of
   the host's speed seldom falls inside one and both sums see the same
   speed. *)
let gg_pcc_pass ~tables ~reps progs =
  let collected f =
    Gc.major ();
    fst (time f)
  in
  Stats.median
    (List.init reps (fun _ ->
         let gg, pcc =
           List.fold_left
             (fun (gg, pcc) prog ->
               let g = collected (fun () -> Driver.compile_program ~tables prog) in
               (gg +. g, pcc +. collected (fun () -> Pcc.compile_program prog)))
             (0., 0.) progs
         in
         gg /. pcc))

(* distinct VAX stack-allocated programs, for the T-TIME pass *)
let vax_programs refs =
  Array.to_list refs.prepared
  |> List.filter (fun p ->
         p.input.Gen.target = Backend.Vax && p.input.Gen.regalloc = Driver.Stack)
  |> List.map (fun p -> p.prog)

(* -- measured windows ---------------------------------------------------------- *)

(* What one run of the measured loop saw.  Untraced and traced samples
   are kept apart: only the untraced ones are end-to-end numbers. *)
type samples = {
  mutable ops : (int * float) list;  (** input index, ms; untraced *)
  mutable traced_ops : (int * float) list;  (** input index, ms *)
  mutable gg_pcc : float list;
      (** Driver.compile_program time over that of the Pcc.compile_program
          right after it on the same program; untraced *)
  mutable attempted : int;
  mutable failed : int;
  mutable busy_s : float;  (** time the untraced operations took *)
  mutable peak_rss_kb : int;
  mutable retries : int;
}

let samples () =
  {
    ops = [];
    traced_ops = [];
    gg_pcc = [];
    attempted = 0;
    failed = 0;
    busy_s = 0.;
    peak_rss_kb = 0;
    retries = 0;
  }

let op_times st = List.map snd st.ops

let note st (rec_ : Spans.t) ~input ~ms ~ok =
  st.attempted <- st.attempted + 1;
  if not ok then st.failed <- st.failed + 1;
  if rec_.Spans.enabled then st.traced_ops <- (input, ms) :: st.traced_ops
  else begin
    st.ops <- (input, ms) :: st.ops;
    st.busy_s <- st.busy_s +. (ms /. 1e3)
  end

(* Set-up is timed this many times in an untraced run, and the median
   is reported. *)
let setup_runs = 5

(* Run [block] over the window, cut into [setup_runs] pieces.  An
   untraced run sets up again ([between]) before every piece but the
   first, so its set-ups are spread over the run like its operations
   instead of bunched at the start; the host's speed changes for
   seconds at a time. *)
let windowed ~between block =
  let len = !seconds /. float_of_int setup_runs in
  for b = 0 to setup_runs - 1 do
    if b > 0 && not !traced then between ();
    block ~deadline:(now () +. len)
  done

(* In a traced run, whether the [i]th operation over [n] inputs is
   traced.  Traced and untraced operations alternate, so both see the
   same machine conditions and their gap prices the tracing; the parity
   flips every pass over the inputs, so each input is traced every
   other time. *)
let traced_turn ~n i = !traced && ((i / n) + (i mod n)) land 1 = 1

(* corpus and deep: source text to assembly in process, one op at a
   time, each followed by the PCC baseline on the same lowered program.
   A traced op records a span around itself and each layer call. *)
let inproc_window ~between ~rec_ ~tables st (p : prepared) =
  let i = ref 0 in
  let op () =
    Spans.record rec_ "op" (fun () ->
        let t0 = now () in
        let ast =
          Spans.record rec_ "frontc.parse" (fun () ->
              Parser.parse_program p.input.Gen.source)
        in
        let prog = Spans.record rec_ "frontc.sema" (fun () -> Sema.lower_program ast) in
        let t1 = now () in
        let out =
          Spans.record rec_ "codegen.compile" (fun () ->
              Driver.compile_program ~tables prog)
        in
        let t2 = now () in
        note st rec_ ~input:0 ~ms:((t2 -. t0) *. 1e3)
          ~ok:(Check.same_bytes ~reference:p.reference out.Driver.assembly);
        (t2 -. t1) *. 1e3)
  in
  (* each compile starts from a collected heap, so neither backend is
     charged for collecting the other's garbage; the ratio is taken per
     pair, so both compiles of a pair see the same host speed *)
  windowed ~between (fun ~deadline ->
      while now () < deadline do
        rec_.Spans.enabled <- traced_turn ~n:1 !i;
        incr i;
        Gc.major ();
        let gg = op () in
        Gc.major ();
        let pcc, _ = time (fun () -> Pcc.compile_program p.prog) in
        if not rec_.Spans.enabled then st.gg_pcc <- (gg /. pcc) :: st.gg_pcc
      done);
  rec_.Spans.enabled <- false

(* The phase table [ggcc --profile] prints on standard error: name and
   milliseconds of each phase, in the order printed. *)
let profile_phases text =
  let rec phases acc = function
    | [] | "" :: _ -> List.rev acc
    | l :: rest -> (
      match Scanf.sscanf l " %s %f ms" (fun n ms -> (n, ms)) with
      | "total", _ -> List.rev acc
      | row -> phases (row :: acc) rest
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> List.rev acc)
  in
  let rec find = function
    | [] -> failwith "ggcc --profile printed no phase timings"
    | "phase timings:" :: rest -> phases [] rest
    | _ :: rest -> find rest
  in
  find (String.split_on_char '\n' text)

(* cli: one fresh ggcc process per source, one at a time.  A traced op
   runs ggcc with --profile; the phase times it reports for itself are
   returned with the op's wall time. *)
let cli_window ~between ~rec_ ~file_of st (refs : prepared array) =
  let n = Array.length refs and i = ref 0 and profiled = ref [] in
  let prof = scratch "profile.txt" in
  windowed ~between (fun ~deadline ->
      while now () < deadline do
        let k = !i mod n in
        let p = refs.(k) in
        rec_.Spans.enabled <- traced_turn ~n !i;
        let out = scratch (Printf.sprintf "out%d.s" (!i land 1)) in
        if Sys.file_exists out then Sys.remove out;
        let args =
          [ "--target"; Targets.name p.input.Gen.target; file_of p.input; "-o"; out ]
        in
        let t0 = now () in
        let ms, code, rss =
          if not rec_.Spans.enabled then run_child (ggcc ()) ("compile" :: args)
          else
            let fd = Unix.openfile prof [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () -> run_child ~stderr:fd (ggcc ()) ("compile" :: "--profile" :: args))
        in
        Spans.add rec_ ~name:"op" ~t0 ~t1:(now ());
        st.peak_rss_kb <- max st.peak_rss_kb rss;
        let ok = code = 0 && Check.same_bytes ~reference:p.reference (Gen.read_file out) in
        if rec_.Spans.enabled && ok then
          profiled := (ms, k, profile_phases (Gen.read_file prof)) :: !profiled;
        note st rec_ ~input:k ~ms ~ok;
        incr i
      done);
  rec_.Spans.enabled <- false;
  !profiled

(* serve: a closed loop of [clients] threads, each waiting for its reply
   before sending the next request.  A traced request carries an id of
   the benchmark's, so the daemon's log line for it can be found; the
   ids are returned with the requests' round-trip times. *)
let serve_window ~between ~recs ~socket st (refs : prepared array) =
  let n = Array.length refs and next = Atomic.make 0 in
  let retries = Atomic.make 0 and lock = Mutex.create () in
  let on_retry ~attempt:_ ~wait_ms:_ = Atomic.incr retries in
  let wall = ref 0. and ids = ref [] in
  windowed ~between (fun ~deadline ->
      let t0 = now () in
      let client rec_ () =
        while now () < deadline do
          let idx = Atomic.fetch_and_add next 1 in
          let k = idx mod n in
          let p = refs.(k) in
          rec_.Spans.enabled <- traced_turn ~n idx;
          let request_id =
            if rec_.Spans.enabled then Some (Printf.sprintf "perfbench-%d" idx) else None
          in
          let req =
            Protocol.request ?request_id ~target:p.input.Gen.target
              ~regalloc:p.input.Gen.regalloc p.input.Gen.source
          in
          let t0 = now () in
          let ok =
            match Client.compile ~on_retry ~socket req with
            | resp -> Check.response_ok ~reference:p.reference resp
            | exception Client.Server_error _ -> false
          in
          let t1 = now () in
          Spans.add rec_ ~name:"op" ~t0 ~t1;
          let ms = (t1 -. t0) *. 1e3 in
          Mutex.protect lock (fun () ->
              (match request_id with
              | Some id when ok -> ids := (ms, k, id) :: !ids
              | _ -> ());
              note st rec_ ~input:k ~ms ~ok)
        done;
        rec_.Spans.enabled <- false
      in
      List.map (fun r -> Thread.create (client r) ()) recs |> List.iter Thread.join;
      wall := !wall +. (now () -. t0));
  st.retries <- Atomic.get retries;
  (* the clients overlap, so throughput is over the window's wall time *)
  st.busy_s <- !wall;
  !ids

(* The daemon's own account of request [id], from its log: the time the
   connection waited for a worker and the time from accepting it to
   having the reply ready, both in ms. *)
let served_times ~log id =
  let field j k =
    match Option.bind (Gg_profile.Json.member k j) Gg_profile.Json.to_float with
    | Some us -> us /. 1e3
    | None -> failwith ("ggccd log line without " ^ k)
  in
  In_channel.with_open_text log In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match Gg_profile.Json.parse l with
         | j
           when Option.bind (Gg_profile.Json.member "request_id" j)
                  Gg_profile.Json.to_str
                = Some id ->
           Some (field j "queue_wait_us", field j "latency_us")
         | _ -> None
         | exception Gg_profile.Json.Parse_error _ -> None)
  |> function
  | Some t -> t
  | None -> failwith ("ggccd logged nothing for request " ^ id)

(* The element of [xs] whose [key] is the median: with an even count,
   the upper of the middle two. *)
let median_by key xs =
  let a = Array.of_list xs in
  if a = [||] then failwith "no traced operation to build a ledger from";
  Array.sort (fun x y -> compare (key x) (key y)) a;
  a.(Array.length a / 2)

(* -- per-layer sweep (traced run) ---------------------------------------------- *)

(* Registers Phase 1 may not use: the ones register variables pin (the
   same rule Driver applies before transforming a function). *)
let reserved ~alloc_regs (f : Tree.func) =
  List.fold_left
    (fun acc s ->
      match s with
      | Tree.Stree t ->
        Tree.fold
          (fun acc node ->
            match node with
            | Tree.Dreg (_, r) | Tree.Autoinc (_, r) | Tree.Autodec (_, r)
              when List.mem r alloc_regs && not (List.mem r acc) ->
              r :: acc
            | _ -> acc)
          acc t
      | _ -> acc)
    [] f.Tree.body

let phase1 (b : Backend.t) (f : Tree.func) =
  let alloc_regs = b.Backend.alloc_regs and leaf_need = b.Backend.leaf_need in
  let pool = List.length alloc_regs - List.length (reserved ~alloc_regs f) in
  let spill_limit =
    if leaf_need > 0 then max 2 ((pool / 2) - 1) else max 2 (pool - 1)
  in
  Transform.run ~spill_limit ~leaf_need f

(* the matcher alone: every transformed tree through the tables with
   callbacks that only count the parser's actions *)
let actions = ref 0

let counting : unit Matcher.callbacks =
  {
    Matcher.on_shift = (fun _ -> incr actions);
    on_reduce = (fun _ _ -> incr actions);
    choose = (fun _ _ -> 0);
  }

let probe engine transformed =
  List.iter
    (fun (tr : Transform.result) ->
      List.iter
        (function
          | Tree.Stree t -> ignore (Matcher.run_tree_engine engine counting t)
          | _ -> ())
        tr.Transform.func.Tree.body)
    transformed

let codec req resp =
  ignore (Protocol.decode_request (Protocol.encode_request req));
  ignore (Protocol.decode_response (Protocol.encode_response resp))

(* The tracing's price: for each input, the gap between the medians of
   its traced and untraced operations, as a share of the untraced one;
   the median over the inputs, in percent.  Pairing by input keeps the
   mix of inputs out of the figure. *)
let trace_overhead_pct st =
  let by_input ops =
    let t = Hashtbl.create 64 in
    List.iter
      (fun (k, ms) -> Hashtbl.replace t k (ms :: Option.value (Hashtbl.find_opt t k) ~default:[]))
      ops;
    t
  in
  let plain = by_input st.ops in
  Hashtbl.fold
    (fun k traced acc ->
      match Hashtbl.find_opt plain k with
      | Some untraced ->
        let u = Stats.median untraced in
        ((Stats.median traced -. u) /. u *. 100.) :: acc
      | None -> acc)
    (by_input st.traced_ops) []
  |> Stats.median

(* The median self time of each span name in [r]. *)
let span_medians r =
  let spans = Spans.spans r and self = Spans.self_times (Spans.spans r) in
  fun name ->
    let xs = ref [] in
    List.iteri
      (fun i (s : Spans.span) -> if s.Spans.name = name then xs := self.(i) :: !xs)
      spans;
    Stats.median !xs

(* Replay one input's operation layer by layer, [reps] times, one span
   per layer call, each from a collected heap. *)
let replay_layers r ~reps ~tables ~socket (p : prepared) =
  let i = p.input in
  let b = Driver.backend tables in
  let req =
    Protocol.request ~target:i.Gen.target ~regalloc:i.Gen.regalloc i.Gen.source
  in
  let layer name f =
    Gc.major ();
    Spans.record r name f
  in
  for _ = 1 to reps do
    let ast = layer "frontc.parse" (fun () -> Parser.parse_program i.Gen.source) in
    let prog = layer "frontc.sema" (fun () -> Sema.lower_program ast) in
    let transformed =
      layer "transform.phase1" (fun () -> List.map (phase1 b) prog.Tree.funcs)
    in
    actions := 0;
    layer "matcher.probe" (fun () -> probe (Driver.engine tables) transformed);
    ignore
      (layer "codegen.compile" (fun () ->
           Driver.compile_program ~options:(options_for i) ~tables prog));
    ignore (layer "pcc.compile" (fun () -> Pcc.compile_program prog));
    let resp = layer "server.compile" (fun () -> Server.compile_request tables req) in
    layer "server.codec" (fun () -> codec req resp);
    ignore (layer "server.roundtrip" (fun () -> Client.compile ~socket req))
  done;
  span_medians r

(* Phase 1 over the distinct inputs and over the same inputs doubled in
   the workload's own dimension: time at 2x over time at 1x *)
let growth_ratio ~tables_of (scaled : Gen.input list) (refs : prepared array) =
  let phase1_ms (i : Gen.input) prog =
    let b = Driver.backend (tables_of i.Gen.target) in
    Stats.median
      (List.init 3 (fun _ ->
           Gc.major ();
           fst (time (fun () -> List.map (phase1 b) prog.Tree.funcs))))
  in
  let seen = Hashtbl.create 64 in
  let distinct (i : Gen.input) =
    let key = (i.Gen.name, i.Gen.target) in
    if Hashtbl.mem seen key then false else (Hashtbl.add seen key (); true)
  in
  let base =
    Array.to_list refs
    |> List.filter (fun p -> distinct p.input)
    |> List.map (fun p -> phase1_ms p.input p.prog)
  in
  Hashtbl.reset seen;
  let doubled =
    List.filter distinct scaled
    |> List.map (fun i -> phase1_ms i (Sema.compile i.Gen.source))
  in
  Stats.sum doubled /. Stats.sum base

(* Grammar replication and digest, table construction, packing and
   load, for the median operation's target. *)
let table_layers r ~cache_dir target =
  let b = Targets.backend_of target in
  let replicate () =
    Spans.record r "grammar.replicate" (fun () -> b.Backend.grammar_of grammar_options)
  in
  ignore (replicate ());
  ignore (replicate ());
  let g = replicate () in
  for _ = 1 to 3 do
    ignore (Spans.record r "grammar.digest" (fun () -> Grammar.digest g))
  done;
  let dense = Spans.record r "tablegen.slr" (fun () -> Tables.build g) in
  let packed = Spans.record r "tablegen.pack" (fun () -> Packed.pack dense) in
  let file = Cache.path ~dir:cache_dir ~target:(Targets.name target) g in
  for _ = 1 to 5 do
    ignore (Spans.record r "tablegen.load" (fun () -> Packed.load g file))
  done;
  let v = span_medians r in
  metric "grammar.replicate_ms" "ms" (v "grammar.replicate");
  metric "grammar.digest_ms" "ms" (v "grammar.digest");
  metric "tablegen.slr_ms" "ms" (v "tablegen.slr");
  metric "tablegen.pack_ms" "ms" (v "tablegen.pack");
  metric "tablegen.load_ms" "ms" (v "tablegen.load");
  metric "tablegen.table_bytes" "bytes" (float_of_int (Unix.stat file).Unix.st_size);
  metric "tablegen.states" "count" (float_of_int (Packed.stats packed).Packed.states)

(* a ggcc process that exits before it loads any table: the command line
   names a missing source, which cmdliner rejects with exit code 124 *)
let process_start () =
  Stats.median
    (List.init 15 (fun _ ->
         let ms, code, _ = run_child (ggcc ()) [ "compile"; scratch "missing.c" ] in
         if code <> 124 then failwith "ggcc on a missing file did not exit 124";
         ms))

(* The per-layer metrics of a traced run: the layers of the median
   operation, the ledger [ledger] builds from the window's own traced
   operations (given the replay's layer times), and the spans written
   out at the end. *)
let report_layers ~st ~refs ~tables_of ~cache_dir ~scaled ~input ~ledger =
  let p = refs.prepared.(input) in
  let target = p.input.Gen.target in
  let tables = tables_of target in
  let sweep_socket = scratch "sweep.sock" in
  use_cache cache_dir;
  let pid = start_daemon ~socket:sweep_socket in
  await_answer ~pid ~socket:sweep_socket target;
  let r = Spans.create ~track:2 in
  r.Spans.enabled <- true;
  let v = replay_layers r ~reps:5 ~tables ~socket:sweep_socket p in
  stop_daemon pid;
  table_layers r ~cache_dir target;
  let compile = v "codegen.compile" and phase1_ms = v "transform.phase1" in
  let probe_ms = v "matcher.probe" in
  metric "frontc.parse_ms" "ms" (v "frontc.parse");
  metric "frontc.sema_ms" "ms" (v "frontc.sema");
  metric "transform.phase1_ms" "ms" phase1_ms;
  metric "transform.growth_ratio" "ratio" (growth_ratio ~tables_of scaled refs.prepared);
  metric "matcher.probe_ms" "ms" probe_ms;
  metric "matcher.actions" "count" (float_of_int !actions);
  metric "matcher.ns_per_action" "ns" (probe_ms *. 1e6 /. float_of_int !actions);
  metric "codegen.compile_ms" "ms" compile;
  metric "codegen.emit_ms" "ms" (compile -. phase1_ms -. probe_ms);
  metric "codegen.insns" "count" (float_of_int p.insns);
  metric "pcc.compile_ms" "ms" (v "pcc.compile");
  metric "server.roundtrip_ms" "ms" (v "server.roundtrip");
  metric "server.compile_ms" "ms" (v "server.compile");
  metric "server.overhead_ms" "ms" (v "server.roundtrip" -. v "server.compile");
  metric "server.codec_us" "us" (v "server.codec" *. 1e3);
  metric "server.retry_after" "count" (float_of_int st.retries);
  metric "process.start_ms" "ms" (process_start ());
  metric "sim.cycles" "count" (float_of_int refs.sim_cycles);
  let total, rows = ledger v in
  Printf.printf "ledger of the median traced %s operation (%s, %s), ms:\n" !workload
    p.input.Gen.name (Targets.name target);
  let p50 = Stats.median (op_times st) in
  metric "ledger.p50_ms" "ms" total;
  metric "unattributed_ms" "ms" (List.assoc "unattributed" rows);
  metric "profile.trace_overhead_pct" "%" (trace_overhead_pct st);
  List.iter (fun (n, x) -> Printf.printf "  %-28s %10.4f\n" n x) rows;
  Printf.printf "  %-28s %10.4f  (untraced p50_ms %.4f)\n" "= total" total p50;
  [ r ]

(* -- workloads ------------------------------------------------------------------ *)

let report_e2e ~setup ~st ~refs ~gg_pcc ~peak_rss_mb =
  let ops = op_times st in
  metric "setup_s" "s" (Stats.median setup);
  metric "p90_ms" "ms" (Stats.quantile ops 0.9);
  metric "gg_pcc_ratio" "ratio" gg_pcc;
  metric "asm_lines_ratio" "ratio"
    (float_of_int refs.gg_text_lines /. float_of_int refs.pcc_text_lines);
  metric "sim_cycles_ratio" "ratio"
    (float_of_int refs.gg_vax_cycles /. float_of_int (max 1 refs.pcc_cycles));
  metric "peak_rss_mb" "MB" peak_rss_mb;
  (* Reported, not gated.  The host alternates between two speeds, one
     about 1.5x the other, for seconds at a time.  The median jumps
     between them, and the throughput follows the share of the window
     spent in the fast one, so over ten runs both spread beyond any
     usable bound; the p90 stays in the slower mode and is gated
     instead.  A p99 needs a thousand samples, which only the cli and
     serve windows collect. *)
  Printf.printf
    "reported: p50_ms %.6f p99_ms %.6f ops_per_s %.6f samples %d asm_lines %d \
     sim_cycles %d\n"
    (Stats.median ops) (Stats.quantile ops 0.99)
    (float_of_int (List.length ops) /. st.busy_s)
    (List.length ops) refs.asm_lines refs.sim_cycles

(* The replay's split of one compile into Phase 1, probe and the rest,
   which covers semantic actions, selection, allocation and rendering. *)
let compile_parts v =
  let phase1 = v "transform.phase1" and probe = v "matcher.probe" in
  [
    ("transform.phase1", phase1); ("matcher.probe", probe);
    ("codegen.emit", Float.max 0. (v "codegen.compile" -. phase1 -. probe));
  ]

(* corpus and deep *)
let run_inproc () =
  let b = Backend.vax in
  let cache_dir = scratch "cache" in
  Sys.mkdir cache_dir 0o755;
  (* set-up: replicate the grammar, construct and pack the tables,
     starting from nothing each time *)
  let build () =
    Gc.compact ();
    let ms, r =
      time (fun () ->
          let g = b.Backend.grammar_of grammar_options in
          (g, Packed.pack (Tables.build g)))
    in
    (ms /. 1e3, r)
  in
  let first, (g, packed) = build () in
  let setup = ref [ first ] in
  (* peak memory of the operations alone: the high-water mark is reset
     after preparing and after every set-up, and read before every
     set-up and at the end *)
  let peak_mb = ref 0. in
  let between () =
    peak_mb := Float.max !peak_mb (vm_hwm_mb "self");
    setup := fst (build ()) :: !setup;
    Gc.compact ();
    reset_hwm ()
  in
  if not (Cache.store ~dir:cache_dir ~target:"vax" g packed) then
    failwith "cannot store tables in the scratch cache";
  let tables = Driver.of_engine ~backend:b (Matcher.packed_engine ~grammar:g packed) in
  let tables_of _ = tables in
  let inputs = Gen.for_workload !workload ~seed:!seed ~examples:[] ~scale:1 in
  let refs = prepare ~tables_of inputs in
  let st = samples () and rec_ = Spans.create ~track:1 in
  Gc.compact ();
  reset_hwm ();
  inproc_window ~between ~rec_ ~tables st refs.prepared.(0);
  peak_mb := Float.max !peak_mb (vm_hwm_mb "self");
  if refs.problems <> [] then st.failed <- st.attempted;
  (* the median traced op's own spans: parse, sema and compile, with the
     compile split by the replay; the op's self time is unattributed *)
  let ledger v =
    let spans = Spans.spans rec_ in
    let root, op =
      List.mapi (fun i s -> (i, s)) spans
      |> List.filter (fun (_, (s : Spans.span)) -> s.Spans.parent < 0)
      |> median_by (fun (_, s) -> Spans.duration_ms s)
    in
    ( Spans.duration_ms op,
      Spans.split (Spans.ledger_of spans root) "codegen.compile" (compile_parts v) )
  in
  let recorders =
    if !traced then
      rec_
      :: report_layers ~st ~refs ~tables_of ~cache_dir
           ~scaled:(Gen.for_workload !workload ~seed:!seed ~examples:[] ~scale:2)
           ~input:0 ~ledger
    else begin
      report_e2e ~setup:!setup ~st ~refs
        ~gg_pcc:(Stats.median st.gg_pcc)
        ~peak_rss_mb:!peak_mb;
      []
    end
  in
  (st, refs, recorders)

let run_cli () =
  let examples = Gen.examples !examples_dir in
  let inputs = Gen.for_workload "cli" ~seed:!seed ~examples ~scale:1 in
  let src_dir = scratch "src" in
  Sys.mkdir src_dir 0o755;
  let file_of (i : Gen.input) = Filename.concat src_dir (i.Gen.name ^ ".c") in
  List.iter (fun i -> write_file (file_of i) i.Gen.source) inputs;
  let first = file_of (List.hd inputs) in
  let cache_dir = scratch "cache" in
  (* set-up: the first ggcc against an empty cache builds and stores
     the tables *)
  let started = ref 0 in
  let cold () =
    incr started;
    use_cache (scratch (Printf.sprintf "cold%d" !started));
    let ms, code, _ =
      run_child (ggcc ()) [ "compile"; first; "-o"; scratch "cold.s" ]
    in
    use_cache cache_dir;
    if code <> 0 then failwith "cold ggcc failed";
    ms /. 1e3
  in
  let setup = ref [ cold () ] in
  let between () = setup := cold () :: !setup in
  List.iter
    (fun target ->
      let _, code, _ =
        run_child (ggcc ())
          [ "compile"; "--target"; Targets.name target; first; "-o"; scratch "warm.s" ]
      in
      if code <> 0 then failwith "warm-up ggcc failed")
    (Array.to_list Gen.targets);
  let tables_of target = Targets.cached_tables ~dir:cache_dir target grammar_options in
  let refs = prepare ~tables_of inputs in
  let st = samples () and rec_ = Spans.create ~track:1 in
  let profiled = cli_window ~between ~rec_ ~file_of st refs.prepared in
  if refs.problems <> [] then st.failed <- st.attempted;
  let recorders =
    if !traced then begin
      (* the median traced process's own phase table; process start,
         exit and output outside its phases are unattributed *)
      let ms, k, phases = median_by (fun (ms, _, _) -> ms) profiled in
      rec_
      :: report_layers ~st ~refs ~tables_of ~cache_dir
           ~scaled:(Gen.for_workload "cli" ~seed:!seed ~examples ~scale:2)
           ~input:k
           ~ledger:(fun _ ->
             (ms, Spans.ledger ~total:ms (List.map (fun (n, x) -> ("ggcc." ^ n, x)) phases)))
    end
    else begin
      report_e2e ~setup:!setup ~st ~refs
        ~gg_pcc:(gg_pcc_pass ~tables:(tables_of Backend.Vax) ~reps:9 (vax_programs refs))
        ~peak_rss_mb:(float_of_int st.peak_rss_kb /. 1024.);
      []
    end
  in
  (st, refs, recorders)

let run_serve () =
  let examples = Gen.examples !examples_dir in
  let inputs = Gen.for_workload "serve" ~seed:!seed ~examples ~scale:1 in
  let targets = Array.to_list Gen.targets in
  (* set-up: from spawning ggccd against an empty cache until it has
     answered once per target; the first daemon serves the window, the
     later ones are stopped at once *)
  let started = ref 0 in
  let cold () =
    incr started;
    let cache_dir = scratch (Printf.sprintf "cache%d" !started) in
    let socket = scratch (Printf.sprintf "d%d.sock" !started) in
    use_cache cache_dir;
    let t0 = now () in
    let pid = start_daemon ~socket in
    List.iter (await_answer ~pid ~socket) targets;
    (now () -. t0, (pid, socket, cache_dir))
  in
  let first, (pid, socket, cache_dir) = cold () in
  let setup = ref [ first ] in
  let between () =
    let s, (p, _, _) = cold () in
    stop_daemon p;
    setup := s :: !setup
  in
  let tables_of target = Targets.cached_tables ~dir:cache_dir target grammar_options in
  let refs = prepare ~tables_of inputs in
  let clients = Domain.recommended_domain_count () in
  let recs = List.init clients (fun k -> Spans.create ~track:(10 + k)) in
  let st = samples () in
  let ids = serve_window ~between ~recs ~socket st refs.prepared in
  let peak = vm_hwm_mb (string_of_int pid) in
  stop_daemon pid;
  if refs.problems <> [] then st.failed <- st.attempted;
  let recorders =
    if !traced then begin
      (* the daemon's log line for the median traced request: its wait
         for a worker, and its handling split by the replay; the client,
         codec and transport time around it is unattributed *)
      let ms, k, id = median_by (fun (ms, _, _) -> ms) ids in
      let ledger v =
        let queued, latency = served_times ~log:(socket ^ ".log") id in
        let compile = v "frontc.parse" +. v "frontc.sema" +. v "codegen.compile" in
        let parts =
          [ ("frontc.parse", v "frontc.parse"); ("frontc.sema", v "frontc.sema") ]
          @ compile_parts v
          @ [ ("server.rest", Float.max 0. (v "server.compile" -. compile)) ]
        in
        ( ms,
          Spans.split
            (Spans.ledger ~total:ms
               [ ("server.queue_wait", queued); ("server.handle", latency -. queued) ])
            "server.handle" parts )
      in
      recs
      @ report_layers ~st ~refs ~tables_of ~cache_dir
          ~scaled:(Gen.for_workload "serve" ~seed:!seed ~examples ~scale:2)
          ~input:k ~ledger
    end
    else begin
      report_e2e ~setup:!setup ~st ~refs
        ~gg_pcc:(gg_pcc_pass ~tables:(tables_of Backend.Vax) ~reps:9 (vax_programs refs))
        ~peak_rss_mb:peak;
      []
    end
  in
  (st, refs, recorders)

let () =
  if !tmp = "" || !bin = "" then begin
    prerr_endline "perfbench: --tmp and --bin are required";
    exit 2
  end;
  let st, refs, recorders =
    match !workload with
    | "corpus" | "deep" -> run_inproc ()
    | "cli" -> run_cli ()
    | "serve" -> run_serve ()
    | w ->
      prerr_endline ("perfbench: unknown workload " ^ w);
      exit 2
  in
  List.iter (fun why -> Printf.printf "reference problem: %s\n" why) refs.problems;
  if recorders <> [] && !out_dir <> "" then
    Spans.write_chrome
      (Filename.concat !out_dir
         (Printf.sprintf "trace-%s-seed%d.json" !workload !seed))
      recorders;
  Printf.printf "inputs: %d, source bytes: %d\n" (Array.length refs.prepared)
    (Array.fold_left (fun n p -> n + String.length p.input.Gen.source) 0 refs.prepared);
  Printf.printf "%s seed %d: %d operations, %d failed (failed_ratio %g)\n"
    !workload !seed st.attempted st.failed
    (float_of_int st.failed /. float_of_int (max 1 st.attempted));
  print_result
    ~correct:(refs.problems = [] && st.failed = 0)
    ~attempted:st.attempted ~failed:st.failed

open Import

(* The serving loop: accept thread -> bounded queue -> worker domains.
   See server.mli for the architecture; the invariant maintained
   throughout is that no request can kill the process — decode errors,
   compile crashes and deadline misses all become responses, and only
   the operator (signal / stop) ends the loop. *)

type config = {
  socket_path : string;
  workers : int;
  queue_capacity : int;
  read_timeout_s : float;
  retry_after_ms : int;
  logger : Slog.t;
  slow_ms : int;
  flight_capacity : int;
  crash_dump : string option;
}

let default_config ~socket_path =
  {
    socket_path;
    (* at least two workers even on a single-core host: requests block
       on socket reads, deliberate sleeps and deadlines, so a second
       worker overlaps that dead time instead of queueing behind it *)
    workers = max 2 (Parallel.available () - 1);
    queue_capacity = 64;
    read_timeout_s = 10.;
    retry_after_ms = 50;
    logger = Slog.null;
    slow_ms = 0;
    flight_capacity = 64;
    crash_dump = None;
  }

type t = {
  cfg : config;
  tables : Backend.target -> Driver.tables;
  sock : Unix.file_descr;
  queue : (Unix.file_descr * float) Squeue.t;
  shutdown : bool Atomic.t;
  n_served : int Atomic.t;
  recorder : Flight.t;
  mutable pool : Parallel.pool option;
  mutable acceptor : Thread.t option;
  mutable stopped : bool;
}

(* -- the compile barrier -------------------------------------------------- *)

(* Mirrors ggcc's direct compile path exactly (same options record,
   same render calls), so --server output is byte-identical; the error
   strings mirror ggcc's handle_errors formatting for the same reason. *)
let compile_request tables (req : Protocol.request) : Protocol.response =
  try
    if req.Protocol.fail_inject then
      failwith "fail_inject: injected failure inside codegen";
    let prog =
      Telemetry.span "frontend" (fun () -> Sema.compile req.Protocol.source)
    in
    match req.Protocol.backend with
    | Protocol.Gg ->
      let options =
        {
          Driver.default_options with
          Driver.idioms = req.Protocol.idioms;
          peephole = req.Protocol.peephole;
          regalloc = req.Protocol.regalloc;
          explain = req.Protocol.explain;
        }
      in
      let out =
        Driver.compile_program ~options ~tables ~jobs:req.Protocol.jobs prog
      in
      Protocol.Asm
        (if req.Protocol.explain then Driver.render_explained tables out
         else out.Driver.assembly)
    | Protocol.Pcc ->
      Protocol.Asm
        (Pcc.compile_program ~peephole:req.Protocol.peephole prog).Pcc.assembly
  with
  | Lexer.Lex_error (line, m) ->
    Protocol.Error (Protocol.Lex, Fmt.str "lexical error, line %d: %s" line m)
  | Parser.Parse_error (line, m) ->
    Protocol.Error (Protocol.Parse, Fmt.str "syntax error, line %d: %s" line m)
  | Sema.Semantic_error m -> Protocol.Error (Protocol.Semantic, m)
  | Matcher.Reject e ->
    Protocol.Error (Protocol.Reject, Fmt.str "%a" Matcher.pp_error e)
  | Stack_overflow -> Protocol.Error (Protocol.Internal, "stack overflow")
  | e -> Protocol.Error (Protocol.Internal, Printexc.to_string e)

(* -- workers -------------------------------------------------------------- *)

let ms_since t0 = (Unix.gettimeofday () -. t0) *. 1e3

let reply fd resp =
  (* the peer may be gone (it timed out client-side, or was rejected
     and closed); a failed reply must not take the worker down *)
  try Framing.write_frame fd (Protocol.encode_response resp)
  with Unix.Unix_error _ | Protocol.Protocol_error _ -> ()

let respond t fd resp =
  (match resp with
  | Protocol.Asm _ -> Telemetry.incr "server.responses_ok"
  | Protocol.Error _ -> Telemetry.incr "server.responses_error"
  | Protocol.Timeout -> Telemetry.incr "server.timeouts_total"
  | Protocol.Retry_after _ -> ());
  Atomic.incr t.n_served;
  reply fd resp

let outcome_name = function
  | Protocol.Asm _ -> "ok"
  | Protocol.Error (k, _) -> Fmt.str "%a" Protocol.pp_error_kind k
  | Protocol.Timeout -> "timeout"
  | Protocol.Retry_after _ -> "retry"

(* every completed request leaves a flight-recorder entry; an Internal
   error means the compile barrier caught a crash, so the ring — now
   holding the crashing request's id as its newest entry — is dumped
   for the post-mortem before the daemon carries on serving *)
let black_box t ~worker ~id ~bytes ~target ~regalloc ~outcome ~queue_wait_us
    ~latency_us =
  Flight.record t.recorder
    {
      Flight.fe_id = id;
      fe_bytes = bytes;
      fe_target = target;
      fe_regalloc = regalloc;
      fe_outcome = outcome;
      fe_queue_wait_us = queue_wait_us;
      fe_latency_us = latency_us;
      fe_worker = worker;
      fe_ts = Unix.gettimeofday ();
    }

let crash_dump t =
  match t.cfg.crash_dump with
  | None -> ()
  | Some path -> (
    try Flight.dump t.recorder path
    with Sys_error _ | Unix.Unix_error _ -> ())

let serve_connection t ~worker fd t_accept =
  let queue_wait_us = int_of_float (ms_since t_accept *. 1e3) in
  Telemetry.observe Telemetry.queue_wait_us queue_wait_us;
  match Framing.read_frame fd with
  | None -> () (* connected and hung up without a request *)
  | exception Protocol.Protocol_error m ->
    respond t fd (Protocol.Error (Protocol.Bad_request, m))
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    respond t fd
      (Protocol.Error (Protocol.Bad_request, "timed out reading the request"))
  | exception Unix.Unix_error _ -> ()
  | Some payload -> (
    Telemetry.incr "server.requests_total";
    match Protocol.decode_request payload with
    | exception Protocol.Protocol_error m ->
      Slog.warn t.cfg.logger ~event:"request.bad"
        [ Slog.int "worker" worker; Slog.str "error" m ];
      respond t fd (Protocol.Error (Protocol.Bad_request, m));
      black_box t ~worker ~id:"-" ~bytes:(String.length payload) ~target:"-"
        ~regalloc:"-" ~outcome:"bad_request" ~queue_wait_us
        ~latency_us:(int_of_float (ms_since t_accept *. 1e3))
    | req ->
      let id = req.Protocol.request_id in
      Slog.debug t.cfg.logger ~event:"request.start"
        [
          Slog.str "request_id" id;
          Slog.int "worker" worker;
          Slog.int "bytes" (String.length req.Protocol.source);
          Slog.int "queue_wait_us" queue_wait_us;
        ];
      ( Telemetry.span ~cat:"server" ~args:[ ("request_id", id) ] "request"
      @@ fun () ->
        if req.Protocol.sleep_ms > 0 then
          Unix.sleepf (float_of_int req.Protocol.sleep_ms /. 1e3);
        let past_deadline () =
          req.Protocol.deadline_ms > 0
          && ms_since t_accept > float_of_int req.Protocol.deadline_ms
        in
        let resp =
          if past_deadline () then Protocol.Timeout
          else
            (* resolving the target's tables may itself hit the disk
               cache; a failure there must answer, not kill the worker *)
            let r =
              match t.tables req.Protocol.target with
              | tables -> compile_request tables req
              | exception e ->
                Protocol.Error (Protocol.Internal, Printexc.to_string e)
            in
            if past_deadline () then Protocol.Timeout else r
        in
        let latency_us = int_of_float (ms_since t_accept *. 1e3) in
        Telemetry.observe Telemetry.request_latency_us latency_us;
        respond t fd resp;
        let outcome = outcome_name resp in
        black_box t ~worker ~id ~bytes:(String.length req.Protocol.source)
          ~target:(Backend.target_name req.Protocol.target)
          ~regalloc:
            (match req.Protocol.regalloc with
            | Driver.Stack -> "stack"
            | Driver.Color -> "color")
          ~outcome ~queue_wait_us ~latency_us;
        (match resp with
        | Protocol.Error (Protocol.Internal, _) -> crash_dump t
        | _ -> ());
        let latency_ms = float_of_int latency_us /. 1e3 in
        let fields =
          [
            Slog.str "request_id" id;
            Slog.str "outcome" outcome;
            Slog.int "worker" worker;
            Slog.int "bytes" (String.length req.Protocol.source);
            Slog.int "queue_wait_us" queue_wait_us;
            Slog.int "latency_us" latency_us;
          ]
        in
        if t.cfg.slow_ms > 0 && latency_ms > float_of_int t.cfg.slow_ms then
          Slog.warn t.cfg.logger ~event:"request.slow"
            (fields @ [ Slog.int "slow_ms" t.cfg.slow_ms ])
        else Slog.info t.cfg.logger ~event:"request.done" fields ))

let worker t idx =
  let rec loop () =
    match Squeue.pop t.queue with
    | None -> ()
    | Some (fd, t_accept) ->
      Telemetry.incr ~by:(-1) "server.queue_depth";
      (try serve_connection t ~worker:idx fd t_accept
       with e ->
         Slog.warn t.cfg.logger ~event:"worker.error"
           [ Slog.int "worker" idx; Slog.str "error" (Printexc.to_string e) ]);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      loop ()
  in
  loop ()

(* -- accepting ------------------------------------------------------------ *)

let accept_loop t =
  while not (Atomic.get t.shutdown) do
    (* a short select timeout doubles as the shutdown poll: SIGTERM
       lands in the main thread, which only flips the atomic *)
    match Unix.select [ t.sock ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept ~cloexec:true t.sock with
      | exception
          Unix.Unix_error
            ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
        ->
        ()
      | fd, _ ->
        (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.read_timeout_s
         with Unix.Unix_error _ -> ());
        if Squeue.try_push t.queue (fd, Unix.gettimeofday ()) then
          Telemetry.incr "server.queue_depth"
        else begin
          (* backpressure: answer now, from the accept thread, so the
             client learns immediately instead of queueing blind *)
          Telemetry.incr "server.rejected_total";
          reply fd (Protocol.Retry_after t.cfg.retry_after_ms);
          (try Unix.close fd with Unix.Unix_error _ -> ())
        end)
  done

(* -- lifecycle ------------------------------------------------------------ *)

let ignore_sigpipe =
  lazy
    (if Sys.os_type = "Unix" then
       try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())

let start ~config:cfg ~tables () =
  Lazy.force ignore_sigpipe;
  if Sys.file_exists cfg.socket_path then begin
    (* stale socket from a dead daemon, or a live one?  probe it *)
    let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect probe (Unix.ADDR_UNIX cfg.socket_path) with
    | () ->
      Unix.close probe;
      failwith (Fmt.str "a compile server is already serving %s" cfg.socket_path)
    | exception Unix.Unix_error _ ->
      Unix.close probe;
      (try Sys.remove cfg.socket_path with Sys_error _ -> ()))
  end;
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind sock (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen sock 128
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      cfg;
      sock;
      queue = Squeue.create ~capacity:cfg.queue_capacity;
      shutdown = Atomic.make false;
      n_served = Atomic.make 0;
      recorder = Flight.create cfg.flight_capacity;
      pool = None;
      acceptor = None;
      stopped = false;
      tables;
    }
  in
  t.pool <- Some (Parallel.spawn_pool ~domains:cfg.workers (worker t));
  t.acceptor <- Some (Thread.create accept_loop t);
  Slog.info cfg.logger ~event:"serving"
    [
      Slog.str "socket" cfg.socket_path;
      Slog.int "workers" cfg.workers;
      Slog.int "queue_capacity" cfg.queue_capacity;
    ];
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.shutdown true;
    Option.iter Thread.join t.acceptor;
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    (* close after the acceptor is gone: everything already queued is
       still popped and served before the workers see the end *)
    Squeue.close t.queue;
    Option.iter Parallel.join_pool t.pool;
    (try Sys.remove t.cfg.socket_path with Sys_error _ -> ());
    Slog.info t.cfg.logger ~event:"drained"
      [ Slog.int "served" (Atomic.get t.n_served) ]
  end

let served t = Atomic.get t.n_served
let queue_depth t = Squeue.length t.queue
let recorder t = t.recorder

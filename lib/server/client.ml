module Telemetry = Gg_profile.Telemetry

exception Server_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Server_error s)) fmt

let ignore_sigpipe =
  lazy
    (if Sys.os_type = "Unix" then
       try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ -> ())

let connect ~socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

(* Each leg of the conversation is its own client-side span, tagged
   with the request id the server tags its span with — so trace-merge
   lines both processes up on one timeline and the gap between
   client.write and the server's request span reads as queue wait. *)
let roundtrip ~socket req =
  Lazy.force ignore_sigpipe;
  let args = [ ("request_id", req.Protocol.request_id) ] in
  let fd =
    Telemetry.span ~cat:"client" ~args "client.connect" @@ fun () ->
    try connect ~socket
    with Unix.Unix_error (e, _, _) ->
      fail "cannot connect to compile server %s: %s" socket
        (Unix.error_message e)
  in
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* a rejected connection may already hold the Retry_after response
     with the write side closed — EPIPE here is fine, the answer is
     still readable *)
  (Telemetry.span ~cat:"client" ~args "client.write" @@ fun () ->
   try Framing.write_frame fd (Protocol.encode_request req)
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  (* the await span covers the server's queue wait plus its compile;
     merged traces show the split against the server's request span *)
  Telemetry.span ~cat:"client" ~args "client.await" @@ fun () ->
  match Framing.read_frame fd with
  | Some payload -> (
    try Protocol.decode_response payload
    with Protocol.Protocol_error m -> fail "unreadable server response: %s" m)
  | None -> fail "server closed the connection without a response"
  | exception Unix.Unix_error (e, _, _) ->
    fail "reading server response: %s" (Unix.error_message e)
  | exception Protocol.Protocol_error m ->
    fail "unreadable server response: %s" m

(* Backoff for a full server queue: exponential with equal jitter,
   capped.  The server's suggested delay seeds the schedule; the
   doubling spreads a thundering herd of rejected clients, the jitter
   keeps them from re-synchronising, and the cap bounds the wait once
   the queue is persistently full. *)
let backoff_cap_ms = 2000

let jitter_rng = lazy (Random.State.make_self_init ())

let backoff_ms ~suggested_ms attempt =
  let base = max 1 suggested_ms in
  let d = min backoff_cap_ms (base * (1 lsl min attempt 10)) in
  (d / 2) + Random.State.int (Lazy.force jitter_rng) (max 1 ((d + 1) / 2))

let compile ?(retries = 10) ?on_retry ~socket req =
  let rec go n waited_ms =
    match roundtrip ~socket req with
    | Protocol.Retry_after ms when n < retries ->
      let wait = backoff_ms ~suggested_ms:ms n in
      Option.iter (fun f -> f ~attempt:(n + 1) ~wait_ms:wait) on_retry;
      Unix.sleepf (float_of_int wait /. 1e3);
      go (n + 1) (waited_ms + wait)
    | Protocol.Retry_after _ ->
      (* exhaustion is an error, never a terminal answer: the caller
         asked for assembly, not for a rejection to interpret *)
      fail
        "compile server %s: queue full; gave up after %d attempt%s and %d ms \
         of backoff"
        socket (n + 1)
        (if n = 0 then "" else "s")
        waited_ms
    | resp -> resp
  in
  go 0 0

(* -- spawn on demand ------------------------------------------------------ *)

let alive ~socket =
  match connect ~socket with
  | fd ->
    Unix.close fd;
    true
  | exception Unix.Unix_error _ -> false

let find_ggccd () =
  let dir = Filename.dirname Sys.executable_name in
  let candidates =
    [ Filename.concat dir "ggccd.exe"; Filename.concat dir "ggccd" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "ggccd" (* execvp searches $PATH *)

let spawn_daemon ~ggccd ~socket =
  let prog = match ggccd with Some p -> p | None -> find_ggccd () in
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    try
      Unix.create_process prog
        [| prog; "--socket"; socket |]
        null_in null_out null_out
    with Unix.Unix_error (e, _, _) ->
      Unix.close null_in;
      Unix.close null_out;
      fail "cannot spawn %s: %s" prog (Unix.error_message e)
  in
  Unix.close null_in;
  Unix.close null_out;
  (prog, pid)

let ensure ?ggccd ?(wait_s = 60.) ~socket ~spawn () =
  if alive ~socket then None
  else begin
    if not spawn then
      fail "no compile server on %s (use --spawn to start one)" socket;
    let prog, pid = spawn_daemon ~ggccd ~socket in
    let deadline = Unix.gettimeofday () +. wait_s in
    (* true iff our child is done and reaped (no zombie left behind) *)
    let reaped () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> false
      | _, _ -> true
      | exception Unix.Unix_error _ -> true
    in
    let rec wait () =
      if alive ~socket then
        (* a server answers; our child is either that server or a
           spawn-race loser — reap it now if it already exited, so no
           zombie outlives this call *)
        if reaped () then None else Some pid
      else if reaped () then begin
        (* Our child exited without serving.  That is fatal only when
           no server exists: two --spawn clients can race, and the
           loser of the stale-socket fight exits while (or just
           before) the winner starts accepting — so give the winner a
           moment and re-check the socket before failing. *)
        let grace = Float.min (deadline -. Unix.gettimeofday ()) 2. in
        let grace_deadline = Unix.gettimeofday () +. grace in
        let rec recheck () =
          if alive ~socket then None
          else if Unix.gettimeofday () > grace_deadline then
            fail "%s exited before serving %s" prog socket
          else begin
            Unix.sleepf 0.05;
            recheck ()
          end
        in
        recheck ()
      end
      else if Unix.gettimeofday () > deadline then
        fail "%s did not start serving %s within %.0f s" prog socket wait_s
      else begin
        Unix.sleepf 0.1;
        wait ()
      end
    in
    wait ()
  end

open Import

(** The [ggccd] serving loop.

    One long-lived process loads the packed tables once (through the
    {!Gg_tablegen.Cache}) and amortises that fixed cost over every
    subsequent compile — the serving analogue of the paper's table-reuse
    argument.  Architecture:

    - an accept thread owns the Unix-domain listening socket and pushes
      each accepted connection (stamped with its accept time) onto a
      bounded {!Squeue}; a full queue is answered immediately with
      {!Protocol.Retry_after} — backpressure instead of unbounded
      buffering;
    - a {!Parallel.spawn_pool} of worker domains drains the queue; each
      worker reads the request frame, compiles behind an exception
      barrier (a crashing compile becomes an [Error] response, the
      daemon keeps serving), honours the request's deadline with a
      [Timeout] response, writes the reply and closes the connection;
    - {!stop} drains gracefully: accepting stops, everything already
      queued is still served, the workers are joined, the socket file
      removed.

    Telemetry rides the one registry ({!Gg_profile.Telemetry}):
    [server.requests_total], [server.responses_*], [server.queue_depth]
    and friends as named counters, the [queue_wait_us] /
    [request_latency_us] histograms, and one span per request on the recording worker's own track.  The v4 request id is
    threaded through everything a request touches — the span's [args],
    every {!Slog} record, the {!Flight} recorder entry — so one id
    greps across logs, traces and post-mortem dumps. *)

type config = {
  socket_path : string;
  workers : int;  (** worker domains draining the queue *)
  queue_capacity : int;  (** accepted-but-unserved connections *)
  read_timeout_s : float;
      (** [SO_RCVTIMEO] on accepted connections, so a client that
          connects and never sends cannot hold a worker forever *)
  retry_after_ms : int;  (** suggested backoff in rejections *)
  logger : Slog.t;  (** structured log sink; {!Slog.null} by default *)
  slow_ms : int;
      (** requests slower than this log [request.slow] at [warn]
          instead of [request.done] at [info]; [0] disables *)
  flight_capacity : int;  (** flight-recorder ring size *)
  crash_dump : string option;
      (** where the flight ring is dumped when the compile barrier
          catches a crash ([Internal] response); [None] disables *)
}

val default_config : socket_path:string -> config

type t

(** Binds the socket, spawns the accept thread and worker pool, and
    returns immediately.  A live daemon already owning the socket is a
    [Failure]; a stale socket file is replaced.  [tables] resolves each
    request's target to its parse tables — the caller decides cache vs
    build (and typically backs it with per-target lazies so a target
    is only loaded when first requested); it must be safe to call from
    any worker domain. *)
val start :
  config:config -> tables:(Backend.target -> Driver.tables) -> unit -> t

(** Graceful drain: stop accepting, serve the backlog, join the
    workers, remove the socket file.  Idempotent. *)
val stop : t -> unit

(** Requests answered so far (any response kind). *)
val served : t -> int

(** Connections accepted but not yet picked up by a worker (live admin
    [stats]). *)
val queue_depth : t -> int

(** The daemon's flight recorder: the last [flight_capacity] request
    summaries, dumpable at any moment (SIGQUIT, admin [flight]). *)
val recorder : t -> Flight.t

(** The compile path behind the barrier, exposed for the differential
    tests: exactly what a worker runs for a decoded request, including
    the error mapping — never raises. *)
val compile_request : Driver.tables -> Protocol.request -> Protocol.response

(** The daemon's ops plane: a second Unix-domain socket answering
    line-oriented admin commands.

    One connection is one command line and one reply, then the server
    closes — drivable from a shell with a socket tool, no client
    library needed.  The endpoint runs on its own thread and shares
    nothing with the compile plane but the (lock-free) metrics shards
    and the flight recorder, so a health probe answers even when every
    worker is busy.

    The {!default_handler} commands:
    - [stats] — the live {!Gg_profile.Telemetry.metrics_doc}, the
      same bytes the shutdown sidecar writes;
    - [health] — [{"status":"ok","served":N,"queue_depth":N}];
    - [metrics] — Prometheus text exposition;
    - [flight] — the {!Flight} ring as JSON;
    - [drain] — asks the daemon to shut down gracefully, answers
      [{"status":"draining"}]. *)

type t

(** Binds [socket_path] and serves [handle] on a dedicated thread.
    [handle] maps a trimmed command line to the complete reply bytes.
    A live endpoint already owning the socket is a [Failure]; a stale
    socket file is replaced. *)
val start : socket_path:string -> handle:(string -> string) -> t

(** Stop the thread, close and remove the socket.  Idempotent. *)
val stop : t -> unit

(** The standard command set over a running {!Server.t}; [drain] is
    invoked (from the admin thread) when the [drain] command arrives
    and should trigger the daemon's graceful shutdown. *)
val default_handler : server:Server.t -> drain:(unit -> unit) -> string -> string

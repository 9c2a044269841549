(** Transport layer for the planning daemon: newline-delimited JSON over
    stdin/stdout or a Unix-domain socket.

    Stdin mode is the pipeline-friendly form —
    {v echo '{"op":"intra",...}' | fusecu_opt serve v}
    — reading until EOF (or a [shutdown] request). Socket mode binds a
    path and serves clients {e concurrently}: each accepted connection
    runs on its own thread against the shared engine (one plan cache,
    one metrics registry), bounded by {!socket_config}. Misbehaving
    clients are contained per connection — a stalled sender hits the
    idle timeout, an over-long line is rejected, a client that vanishes
    mid-batch is dropped — and each such event lands in a
    {!Metrics} counter ([conns_accepted], [conns_closed],
    [conn_idle_timeouts], [conn_oversized_lines], [conn_client_drops]).

    Both modes run one connection loop: requests come through
    {!Line_reader.read}, and the responses of a batch collect in one buffer
    that is written with one {!write_all} before the next read and once
    more at end of input, so a batch costs one write and no response
    waits for more input. Right after each such write the loop flushes
    the engine's {!Store} ({!Store.flush}), so no reply waits for the
    store and a batch's records are in the file before the connection
    reads again; every forked shard of a [route] tier runs the same
    loop.

    Shutdown is graceful on SIGINT, SIGTERM, or an in-band [shutdown]
    request: the listener stops accepting and is closed, the socket
    path is unlinked, and in-flight connections drain their pending
    batch (every request already received gets its response) before
    their threads are joined. *)

type socket_config = {
  max_conns : int;
      (** connection cap; the accept loop applies backpressure (stops
          accepting) while this many connections are active *)
  idle_timeout : float;
      (** seconds a connection may sit without delivering a complete
          request line (and per-response write-liveness bound) before it
          is closed; [<= 0.] disables the timeout *)
  max_line : int;
      (** longest accepted request line in bytes; longer input gets a
          [bad_request] error response and the connection is closed *)
}

val default_socket_config : socket_config
(** 16 connections, 30 s idle timeout, 1 MiB line bound. *)

val serve_fds : Engine.t -> ?batch:int -> Unix.file_descr -> Unix.file_descr -> unit
(** [serve_fds engine input output] serves requests read from [input]
    until end of input or a [shutdown] request, writing the responses
    to [output] (stdin mode passes [Unix.stdin] and [Unix.stdout]): the
    socket connection's loop with no idle timeout, no line bound and no
    [conn_*] counters. *)

val serve_socket :
  Engine.t -> ?batch:int -> ?config:socket_config -> path:string -> unit -> unit
(** Listen on a Unix-domain socket at [path] (an existing {e socket}
    file there is replaced) and serve connections concurrently until a
    [shutdown] request or a termination signal arrives; the socket file
    is removed on exit and previous signal dispositions are restored.

    Raises [Failure] when [path] exists and is not a socket,
    [Invalid_argument] on a non-positive [max_conns]/[max_line], and
    [Unix.Unix_error] on bind/listen failures. *)

(** {1 Line transport primitives}

    The server's bounded line reader and stall-protected writer,
    re-exported for other line-protocol front ends: the {!Router}'s one
    [select] loop reads its client and every backend through
    {!Line_reader.step} and writes its client with {!write_all}. *)

module Line_reader : sig
  type t
  (** One [Bytes] buffer of received bytes with start and stop offsets.
      Each read asks for up to 64 KiB into the buffer's free tail; the
      newline scan covers only bytes not scanned before, and each line
      is copied out once. The unread bytes slide to the front only when
      the buffer is full, and the buffer grows only while one pending
      line fills it, so a partial line holds at most [max_line] bytes
      plus one read. *)

  type result =
    | Line of string
    | Eof
    | Timeout  (** no complete line within the idle timeout *)
    | Oversized  (** line exceeded [max_line] before its newline *)
    | Stopped  (** [stop] flag was set *)

  val create : Unix.file_descr -> t

  val step : max_line:int -> readable:bool -> t -> result option
  (** The non-blocking step: the next buffered line, or the [Eof] or
      [Oversized] that ends the input. When none is buffered and
      [readable] says [select] reported the descriptor readable, one
      [read] first. [None]: nothing more without waiting. A partial
      line at EOF is returned as a line; a line longer than [max_line]
      bytes is [Oversized], whether or not its newline has arrived. *)

  val read :
    ?stop:bool Atomic.t -> idle_timeout:float -> max_line:int -> t -> result
  (** One line, or the reason there is none: {!step} until it answers,
      waiting in [select] slices between steps. The idle deadline
      covers the whole wait for one complete line (slow-loris-proof);
      [idle_timeout <= 0.] disables the deadline. Once [stop] is set,
      lines already readable are still returned, and then [Stopped]. *)
end

exception Write_stalled

val write_all : idle_timeout:float -> Unix.file_descr -> string -> unit
(** Write the whole string without copying it. Each wait for
    write-readiness is a [select] slice, and the whole write is bounded
    by [idle_timeout] from the call ([<= 0.] disables the bound); raises
    {!Write_stalled} when the peer stops reading. *)

(** {1 Metrics exporter} *)

type exporter

val start_metrics_exporter : render:(unit -> string) -> addr:string -> exporter
(** Bind a TCP listener at [addr] ("PORT" or "HOST:PORT"; host defaults
    to 127.0.0.1, port 0 binds an ephemeral port — see
    {!exporter_port}) and serve [render ()] to every connection on a
    dedicated thread: the client connects, receives the full text
    (Prometheus exposition when [render] is {!Engine.prometheus}) and
    the connection is closed — no HTTP framing, [nc host port] is a
    complete scrape. Raises [Invalid_argument] on a malformed address
    and [Unix.Unix_error] on bind failures. *)

val exporter_port : exporter -> int
(** The actually-bound port (useful with port 0). *)

val stop_metrics_exporter : exporter -> unit
(** Stop accepting, join the exporter thread and close the listener.
    Idempotent. *)

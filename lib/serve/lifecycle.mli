(** One request's lifecycle record: the timestamps and waits a request
    accumulates on the event loop that owns its connection —
    accept → frame (read → parse) → queue (head-of-line wait behind
    earlier requests of the same read) → worker (inline execution) →
    respond → flush — plus the buffer-pool page faults attributed to it
    while it executed.

    A record is allocated by the owning loop when the request starts
    executing (from the read and parse stamps taken earlier) and is
    finalized by the same loop once the response bytes have drained to
    the socket, so every flight-recorder write and histogram observation
    for it happens on one thread and nothing here is locked. When
    lifecycle telemetry is off ([--no-lifecycle]) no record exists and
    every touch point is one [Option] test. The ambient {!current}
    pointer (for page-fault attribution from layers that cannot see the
    request) is domain-local; each loop is its own domain and executes
    one request at a time, so attribution is exact. *)

(** [B_cache_derived]: answered from the cache by subsumption (filtering
    a more general entry's answer set), not an exact key. *)
type backend = B_none | B_cache | B_cache_derived | B_sld

type t = {
  lc_conn : int;            (** connection id *)
  lc_rid : int;             (** request id (v4 client id / line seqno) *)
  lc_loop : int;            (** owning event loop *)
  lc_framed : bool;         (** v4 frame (vs line dialect) *)
  lc_label : string;        (** verb word, plus the atom for queries *)
  lc_accept_ns : int64;     (** the connection's accept time *)
  lc_frame_ns : int64;      (** the read that carried the request *)
  mutable lc_queue_ns : int64;    (** parsed out of the read buffer *)
  mutable lc_worker_ns : int64;   (** inline execution started *)
  mutable lc_respond_ns : int64;  (** response enqueued (0 = never) *)
  mutable lc_flush_ns : int64;    (** response drained (0 = never) *)
  mutable lc_backend : backend;
  mutable lc_error : bool;        (** error reply, or the conn died *)
  mutable lc_page_wait_ns : int;  (** page-fault read wait *)
  mutable lc_page_reads : int;
  mutable lc_reductions : int;    (** SLD work of the query answered *)
  mutable lc_retrievals : int;
  mutable lc_exec : Trace.span option;
      (** the [TRACE] verb's span tree (the only traced requests) *)
}

val now_ns : unit -> int64

val create :
  conn:int ->
  rid:int ->
  loop:int ->
  framed:bool ->
  label:string ->
  accept_ns:int64 ->
  frame_ns:int64 ->
  t

(** {1 Ambient record (page-fault attribution)} *)

(** Set by the loop for the duration of one request's execution; read
    by the {!Store.Hooks} observer on the same domain. *)
val set_current : t option -> unit

val current : unit -> t option

val add_page_wait : t -> int -> unit

(** {1 Reads} *)

(** Whole-request nanoseconds: parse to flush (or to the last stamped
    timestamp for requests that never flushed). *)
val total_ns : t -> int64

val backend_name : backend -> string

(** {1 Span-tree export}

    The lifecycle skeleton as a {!Trace} span tree, every span carrying
    the owning loop id as its [loop] attribute:

    {v
      <label> [request]
      ├── accept  (instant: the connection's accept time)
      ├── frame   (read → this request parsed)
      ├── queue   (parsed → execution starts, behind earlier requests
      │            of the same read)
      ├── worker  (execution → response enqueued)
      │   ├── cache | cache_derived | sld   (the backend that answered)
      │   │   └── page_read  (when the store faulted pages in)
      │   └── <serve span tree>  (TRACE requests only)
      └── flush   (response enqueued → bytes drained)
    v}

    Stages never reached are omitted. *)
val to_span : t -> Trace.span

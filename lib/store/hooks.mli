(** Page-fault wait observation: a process-global hook timed around the
    one place a read blocks on the disk — a buffer-pool page fault's
    [read].

    With no observer installed ({!installed} [= None], the default) the
    hot path pays one atomic load and no clock read. The serving layer
    installs an observer that attributes the wait to the executing
    request's lifecycle record and to the
    [strategem_stage_latency_us{stage="page_read"}] histogram. The
    observer is called with the wait's duration in nanoseconds, on the
    thread that waited, and must not call back into the store. *)

val install : (int -> unit) -> unit
val clear : unit -> unit
val installed : unit -> (int -> unit) option

(** [timed f] runs [f], reporting its wall-clock nanoseconds to the
    installed observer (if any). Used by {!Pool} internally. *)
val timed : (unit -> 'a) -> 'a

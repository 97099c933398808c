(** Durable-write helpers shared by everything that persists state
    (strategy snapshots, the fact store's WAL and checkpoints).

    The discipline is always the same: write a temp file, [fsync] it,
    [rename] over the final name, then [fsync] the directory. Without the
    first fsync a crash shortly after the rename can leave the final name
    pointing at truncated data (the rename is metadata and can reach disk
    before the data blocks); without the second, the rename itself may be
    lost. *)

(** [fsync_fd fd] — flush [fd] to stable storage; [Unix.Unix_error]
    escapes (callers writing durability-critical data must not swallow
    it). *)
val fsync_fd : Unix.file_descr -> unit

(** [fsync_dir dir] — make the entries of [dir] (a rename, a new file)
    durable. [Unix.Unix_error] from opening [dir] or from the fsync
    escapes: a directory entry that may not be on disk is a durability
    failure the caller must see. *)
val fsync_dir : string -> unit

(** [write_file path content] — atomic durable replacement of [path]:
    temp file + fsync + rename + directory fsync. Concurrent writers
    race safely (last rename wins; readers never see a torn file). *)
val write_file : string -> string -> unit

(** [mkdir] if missing (single level). *)
val ensure_dir : string -> unit

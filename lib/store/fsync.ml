let fsync_fd fd = Unix.fsync fd

let fsync_dir dir =
  let dirfd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close dirfd with Unix.Unix_error _ -> ())
    (fun () -> Unix.fsync dirfd)

let write_file path content =
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let len = String.length content in
      let written = ref 0 in
      while !written < len do
        written :=
          !written + Unix.write_substring fd content !written (len - !written)
      done;
      fsync_fd fd);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

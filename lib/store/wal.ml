type op =
  | Sym of { sid : int; name : string }
  | Add of { gen : int; pred : int; args : int array }
  | Del of { gen : int; pred : int; args : int array }

type sync_mode = Always | Interval of float | Never

(* ---------- CRC-32 (IEEE 802.3, reflected) ---------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 buf off len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := table.((!c lxor Bytes.get_uint8 buf i) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* ---------- record encoding ---------- *)

let k_sym = 1
let k_add = 2
let k_del = 3

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let encode_body op =
  match op with
  | Sym { sid; name } ->
    let b = Bytes.create (5 + String.length name) in
    Bytes.set_uint8 b 0 k_sym;
    set_u32 b 1 sid;
    Bytes.blit_string name 0 b 5 (String.length name);
    b
  | Add { gen; pred; args } | Del { gen; pred; args } ->
    let nargs = Array.length args in
    let b = Bytes.create (14 + (4 * nargs)) in
    Bytes.set_uint8 b 0 (match op with Add _ -> k_add | _ -> k_del);
    Bytes.set_int64_le b 1 (Int64.of_int gen);
    set_u32 b 9 pred;
    Bytes.set_uint8 b 13 nargs;
    Array.iteri (fun i a -> set_u32 b (14 + (4 * i)) a) args;
    b

exception Bad

let decode_body b =
  let len = Bytes.length b in
  if len < 1 then raise Bad;
  match Bytes.get_uint8 b 0 with
  | k when k = k_sym ->
    if len < 5 then raise Bad;
    Sym { sid = get_u32 b 1; name = Bytes.sub_string b 5 (len - 5) }
  | k when k = k_add || k = k_del ->
    if len < 14 then raise Bad;
    let nargs = Bytes.get_uint8 b 13 in
    if len <> 14 + (4 * nargs) then raise Bad;
    let gen = Int64.to_int (Bytes.get_int64_le b 1) in
    let pred = get_u32 b 9 in
    let args = Array.init nargs (fun i -> get_u32 b (14 + (4 * i))) in
    if Bytes.get_uint8 b 0 = k_add then Add { gen; pred; args }
    else Del { gen; pred; args }
  | _ -> raise Bad

(* A frame can in principle be large (a long symbol name), but anything
   beyond this is surely corruption, not data. *)
let max_body = 1 lsl 20

let replay path f =
  match
    Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
  with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        let buf = Bytes.create size in
        let rec fill off =
          if off < size then
            match Unix.read fd buf off (size - off) with
            | 0 -> ()
            | n -> fill (off + n)
        in
        fill 0;
        let pos = ref 0 in
        let valid = ref 0 in
        (try
           while !pos + 8 <= size do
             let len = get_u32 buf !pos in
             if len = 0 || len > max_body || !pos + 8 + len > size then
               raise Exit;
             let body = Bytes.sub buf (!pos + 4) len in
             if crc32 buf (!pos + 4) len <> get_u32 buf (!pos + 4 + len) then
               raise Exit;
             let op = decode_body body in
             pos := !pos + 8 + len;
             valid := !pos;
             f op
           done
         with Exit | Bad -> ());
        !valid)

(* ---------- appending ---------- *)

type t = {
  fd : Unix.file_descr;
  mode : sync_mode;
  mutable bytes : int;
  mutable appends : int;
  mutable syncs : int;
  mutable dirty : bool;      (* appended since the last fsync *)
  mutable last_sync : float;
}

let open_append path ~valid ~sync:mode =
  let fd =
    Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
  in
  Unix.ftruncate fd valid;
  ignore (Unix.lseek fd valid Unix.SEEK_SET);
  {
    fd;
    mode;
    bytes = valid;
    appends = 0;
    syncs = 0;
    dirty = false;
    last_sync = Unix.gettimeofday ();
  }

let write_all fd b =
  let len = Bytes.length b in
  let rec go off =
    if off < len then go (off + Unix.write fd b off (len - off))
  in
  go 0

let do_sync t =
  Fsync.fsync_fd t.fd;
  t.syncs <- t.syncs + 1;
  t.dirty <- false;
  t.last_sync <- Unix.gettimeofday ()

let append t op =
  let body = encode_body op in
  let len = Bytes.length body in
  let frame = Bytes.create (8 + len) in
  set_u32 frame 0 len;
  Bytes.blit body 0 frame 4 len;
  set_u32 frame (4 + len) (crc32 frame 4 len);
  write_all t.fd frame;
  t.bytes <- t.bytes + 8 + len;
  t.appends <- t.appends + 1;
  t.dirty <- true;
  match t.mode with
  | Always -> do_sync t
  | Never -> ()
  | Interval s ->
    if Unix.gettimeofday () -. t.last_sync >= s then do_sync t

let sync t = if t.dirty then do_sync t

let reset t =
  Unix.ftruncate t.fd 0;
  ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
  t.bytes <- 0;
  do_sync t

let size t = t.bytes

type stats = { bytes : int; appends : int; syncs : int }

let stats (t : t) = { bytes = t.bytes; appends = t.appends; syncs = t.syncs }

let close t =
  (try sync t with Unix.Unix_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()

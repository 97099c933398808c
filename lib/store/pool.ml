type frame = {
  data : Bytes.t;
  mutable page_no : int; (* -1 = free *)
  mutable pins : int;
  mutable dirty : bool;
  mutable refbit : bool;
}

type t = {
  page_size : int;
  frames : frame array;
  table : (int, int) Hashtbl.t; (* page_no -> frame index *)
  mutable hand : int;
  mutable base_fd : Unix.file_descr option;
  mutable base_pages : int;
  spill_path : string;
  spill_fd : Unix.file_descr;
  spilled : (int, unit) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable page_reads : int;
  mutable page_writes : int;
}

let create ~page_size ~frames ~spill_path =
  if frames < 2 then invalid_arg "Pool.create: need at least 2 frames";
  let spill_fd =
    Unix.openfile spill_path
      [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  {
    page_size;
    frames =
      Array.init frames (fun _ ->
          {
            data = Bytes.create page_size;
            page_no = -1;
            pins = 0;
            dirty = false;
            refbit = false;
          });
    table = Hashtbl.create (2 * frames);
    hand = 0;
    base_fd = None;
    base_pages = 0;
    spill_path;
    spill_fd;
    spilled = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    evictions = 0;
    page_reads = 0;
    page_writes = 0;
  }

let page_size t = t.page_size
let frames t = Array.length t.frames

let pread fd buf ~file_off =
  ignore (Unix.lseek fd file_off Unix.SEEK_SET);
  let len = Bytes.length buf in
  let rec go off =
    if off < len then
      match Unix.read fd buf off (len - off) with
      | 0 ->
        (* short file: zero-fill the tail (a page past EOF) *)
        Bytes.fill buf off (len - off) '\000'
      | n -> go (off + n)
  in
  go 0

let pwrite fd buf ~file_off =
  ignore (Unix.lseek fd file_off Unix.SEEK_SET);
  let len = Bytes.length buf in
  let rec go off =
    if off < len then go (off + Unix.write fd buf off (len - off))
  in
  go 0

let set_base t fd ~base_pages =
  (match t.base_fd with
  | Some old -> ( try Unix.close old with Unix.Unix_error _ -> ())
  | None -> ());
  t.base_fd <- fd;
  t.base_pages <- base_pages;
  Hashtbl.reset t.table;
  Hashtbl.reset t.spilled;
  Array.iter
    (fun fr ->
      fr.page_no <- -1;
      fr.pins <- 0;
      fr.dirty <- false;
      fr.refbit <- false)
    t.frames;
  Unix.ftruncate t.spill_fd 0

(* Clock sweep: skip pinned frames, give referenced frames a second
   chance. Two full sweeps without a victim means every frame is pinned
   — a caller bug (the store pins at most a handful of pages at once). *)
let evict t =
  let n = Array.length t.frames in
  let victim = ref (-1) in
  let steps = ref 0 in
  while !victim < 0 do
    if !steps > 2 * n then failwith "Store.Pool: all frames pinned";
    incr steps;
    let fr = t.frames.(t.hand) in
    let here = t.hand in
    t.hand <- (t.hand + 1) mod n;
    if fr.pins = 0 then
      if fr.refbit then fr.refbit <- false else victim := here
  done;
  let fr = t.frames.(!victim) in
  if fr.page_no >= 0 then begin
    if fr.dirty then begin
      (* Steal: the spill file is per-run scratch, so no WAL force is
         needed — durability comes from the WAL alone and recovery
         never reads the spill. *)
      pwrite t.spill_fd fr.data ~file_off:(fr.page_no * t.page_size);
      Hashtbl.replace t.spilled fr.page_no ();
      t.page_writes <- t.page_writes + 1
    end;
    Hashtbl.remove t.table fr.page_no;
    t.evictions <- t.evictions + 1
  end;
  fr.page_no <- -1;
  fr.dirty <- false;
  !victim

let free_frame t =
  let n = Array.length t.frames in
  let rec find i = if i >= n then None else
      if t.frames.(i).page_no < 0 && t.frames.(i).pins = 0 then Some i
      else find (i + 1)
  in
  find 0

let load t page_no ~fresh =
  let idx = match free_frame t with Some i -> i | None -> evict t in
  let fr = t.frames.(idx) in
  if fresh then Bytes.fill fr.data 0 t.page_size '\000'
  else begin
    Hooks.timed (fun () ->
        if Hashtbl.mem t.spilled page_no then
          pread t.spill_fd fr.data ~file_off:(page_no * t.page_size)
        else
          match t.base_fd with
          | Some fd when page_no < t.base_pages ->
            pread fd fr.data ~file_off:(page_no * t.page_size)
          | _ -> Bytes.fill fr.data 0 t.page_size '\000');
    t.page_reads <- t.page_reads + 1
  end;
  fr.page_no <- page_no;
  fr.dirty <- false;
  Hashtbl.replace t.table page_no idx;
  idx

let pin t page_no ~fresh =
  let idx =
    match Hashtbl.find_opt t.table page_no with
    | Some idx ->
      t.hits <- t.hits + 1;
      idx
    | None ->
      t.misses <- t.misses + 1;
      load t page_no ~fresh
  in
  let fr = t.frames.(idx) in
  fr.pins <- fr.pins + 1;
  fr.refbit <- true;
  fr

let unpin fr = fr.pins <- fr.pins - 1

let with_page t page_no f =
  let fr = pin t page_no ~fresh:false in
  Fun.protect ~finally:(fun () -> unpin fr) (fun () -> f fr.data)

let with_dirty ?(fresh = false) t page_no f =
  let fr = pin t page_no ~fresh in
  fr.dirty <- true;
  Fun.protect ~finally:(fun () -> unpin fr) (fun () -> f fr.data)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  page_reads : int;
  page_writes : int;
}

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    page_reads = t.page_reads;
    page_writes = t.page_writes;
  }

let close t =
  (match t.base_fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  t.base_fd <- None;
  (try Unix.close t.spill_fd with Unix.Unix_error _ -> ());
  try Sys.remove t.spill_path with Sys_error _ -> ()

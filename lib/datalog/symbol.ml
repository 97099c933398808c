type t = { id : int; name : string }

(* Interning must be safe under the serve daemon's worker domains, which
   parse client-supplied atoms in parallel. The common case by far is a
   symbol that is already interned — every atom of every query re-interns
   its predicate and constants — so the read path must not contend:

   - Reads go through an open-addressing table (the "snapshot")
     published via [Atomic]. A slot is one word of a plain array,
     holding either the shared [dummy] sentinel or an interned symbol.
     A reader racing an insert reads that word without synchronization,
     which the OCaml 5 memory model makes safe: a racy read returns
     some value that was written to the location (here [dummy] or the
     new symbol, never a torn word), and a block reached through such a
     read is seen with its initialising writes (a symbol observed in a
     slot always has its [id] and [name]). A lookup is hash + probe +
     string compare: no lock, no allocation.
   - Inserts (rare after warmup) serialize on a mutex. A new symbol is
     published by a single slot store into the current snapshot; the
     snapshot array is only rebuilt (copy + rehash, swapped in with one
     [Atomic.set]) when the load factor crosses 1/2, so probes always
     terminate and insertion cost is amortized O(1).

   Readers racing an insert either see the new symbol or miss and retry
   under the mutex — both outcomes are correct, and a name is never
   interned twice. *)

let dummy = { id = -1; name = "" }

type snap = { mask : int; slots : t array }

let make_snap n = { mask = n - 1; slots = Array.make n dummy }

(* 2048 slots holds the first 1024 symbols without a rebuild. *)
let snapshot = Atomic.make (make_snap 2048)
let lock = Mutex.create ()
let next = Atomic.make 0

(* Probe for [name]; returns [dummy] on a miss. Probes terminate because
   the insert path keeps at least half the slots empty. Top-level
   recursion (not a local closure) so the interned fast path allocates
   nothing. *)
let rec probe_from slots mask name i =
  let s = Array.unsafe_get slots (i land mask) in
  if s == dummy then dummy
  else if String.equal s.name name then s
  else probe_from slots mask name (i + 1)

let find_in snap name h = probe_from snap.slots snap.mask name h

(* Store [sym] at the first empty slot of its probe sequence. Writers
   hold the mutex, so the found slot cannot be filled concurrently. *)
let insert_in snap sym h =
  let rec probe i =
    let j = i land snap.mask in
    if Array.unsafe_get snap.slots j == dummy then
      Array.unsafe_set snap.slots j sym
    else probe (i + 1)
  in
  probe h

let intern name =
  let h = Hashtbl.hash name in
  let s = find_in (Atomic.get snapshot) name h in
  if s != dummy then s
  else begin
    Mutex.lock lock;
    (* Re-probe: another domain may have interned it since the fast path
       missed. Writers are serialized, so this snapshot read is current. *)
    let snap = Atomic.get snapshot in
    let s = find_in snap name h in
    let s =
      if s != dummy then s
      else begin
        let sym = { id = Atomic.get next; name } in
        let n_slots = Array.length snap.slots in
        if 2 * (sym.id + 1) > n_slots then begin
          (* Rebuild at double capacity, then publish the new table in
             one swap; readers keep using the old snapshot meanwhile. *)
          let bigger = make_snap (2 * n_slots) in
          Array.iter
            (fun s ->
              if s != dummy then insert_in bigger s (Hashtbl.hash s.name))
            snap.slots;
          insert_in bigger sym h;
          Atomic.set snapshot bigger
        end
        else insert_in snap sym h;
        Atomic.incr next;
        sym
      end
    in
    Mutex.unlock lock;
    s
  end

let to_string s = s.name
let id s = s.id
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash s = s.id
let pp ppf s = Format.pp_print_string ppf s.name
let count () = Atomic.get next

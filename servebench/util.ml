(* Clock, substring search and order statistics shared by the benchmark modules. *)

(* CLOCK_MONOTONIC in ns, unboxed and allocation-free, from the stub
   bechamel's monotonic_clock library links in. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

let find s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* Nearest-rank percentile of an unsorted sample (copied, then sorted). *)
let percentile (xs : float array) p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile xs 50.0

(* Mean of the middle 60% of a sample (a fifth trimmed from each end):
   robust to a few outliers like a median, but continuous when the sample
   is bimodal, where a median jumps from one mode to the other. *)
let trimmed_mean xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let k = n / 5 in
    let sum = ref 0.0 in
    for i = k to n - k - 1 do sum := !sum +. a.(i) done;
    !sum /. float_of_int (n - (2 * k))
  end

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* Reads to EOF, so it also works on /proc files (whose length reads 0). *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

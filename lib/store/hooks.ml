let observer : (int -> unit) option Atomic.t = Atomic.make None
let install f = Atomic.set observer (Some f)
let clear () = Atomic.set observer None
let installed () = Atomic.get observer

let timed f =
  match Atomic.get observer with
  | None -> f ()
  | Some obs ->
    let t0 = Unix.gettimeofday () in
    let finally () =
      obs (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))
    in
    Fun.protect ~finally f

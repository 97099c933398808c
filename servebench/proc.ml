(* The server under test as a subprocess: spawn, set-up timing, control
   requests (PING, SHUTDOWN) over the line dialect, /proc readings and the
   /metrics scrape. *)

type t = {
  pid : int;
  out : in_channel;  (** the server's stdout, held open until it exits *)
  port : int;
  metrics_port : int;
  setup_s : float;  (** spawn until the first PING is answered *)
}

let loopback = Unix.inet_addr_loopback

let connect port =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect s (Unix.ADDR_INET (loopback, port))
   with e -> Unix.close s; raise e);
  Unix.setsockopt s Unix.TCP_NODELAY true;
  s

(* One request on a fresh line-dialect connection; returns the first
   reply line. *)
let request port line =
  let s = connect port in
  Fun.protect ~finally:(fun () -> Unix.close s) (fun () ->
      let msg = Bytes.of_string (line ^ "\n") in
      ignore (Unix.write s msg 0 (Bytes.length msg));
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        match Unix.read s chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes b chunk 0 n;
          if not (Bytes.contains (Bytes.sub chunk 0 n) '\n') then go ()
      in
      go ();
      let r = Buffer.contents b in
      match String.index_opt r '\n' with Some i -> String.sub r 0 i | None -> r)

(* Port number at the end of a "... on 127.0.0.1:PORT ..." line. *)
let port_of_line line =
  match Util.find line "127.0.0.1:" with
  | None -> None
  | Some i ->
    let j = i + String.length "127.0.0.1:" in
    let k = ref j in
    while !k < String.length line && line.[!k] >= '0' && line.[!k] <= '9' do incr k done;
    int_of_string_opt (String.sub line j (!k - j))

let timeout_s = 120.0

(* Spawn [exe args], read the bound ports off its stdout, then PING until
   answered. *)
let spawn ~exe ~args ~log =
  let t0 = Util.now_s () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_w err
  in
  Unix.close out_w;
  Unix.close err;
  let ic = Unix.in_channel_of_descr out_r in
  let port = ref None and mport = ref None in
  (try
     while !port = None || !mport = None do
       let line = input_line ic in
       if Util.find line "listening on" <> None then port := port_of_line line
       else if Util.find line "metrics on" <> None then mport := port_of_line line
     done
   with End_of_file -> ());
  match (!port, !mport) with
  | Some port, Some metrics_port ->
    let rec ping () =
      match request port "PING" with
      | "PONG" -> ()
      | r -> failwith ("server answered PING with " ^ r)
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
        if Util.now_s () -. t0 > timeout_s then failwith "server never answered PING";
        Unix.sleepf 0.001;
        ping ()
    in
    (try ping ()
     with e ->
       Unix.kill pid Sys.sigkill;
       ignore (Unix.waitpid [] pid);
       close_in ic;
       raise e);
    { pid; out = ic; port; metrics_port; setup_s = Util.now_s () -. t0 }
  | _ ->
    (try Unix.kill pid Sys.sigkill with _ -> ());
    ignore (Unix.waitpid [] pid);
    close_in ic;
    failwith (Printf.sprintf "server exited during start-up (see %s)" log)

(* Graceful SHUTDOWN, then wait; SIGKILL if it has not exited in time. *)
let stop t =
  (try ignore (request t.port "SHUTDOWN") with _ -> ());
  let deadline = Util.now_s () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Util.now_s () < deadline -> Unix.sleepf 0.005; wait ()
    | 0, _ ->
      Unix.kill t.pid Sys.sigkill;
      ignore (Unix.waitpid [] t.pid)
    | _ -> ()
  in
  wait ();
  close_in_noerr t.out

(* utime + stime of every thread of the process, in seconds. *)
let cpu_s pid =
  let s = Util.read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  (* fields 14 and 15 of stat; [after] starts at field 3 *)
  float_of_string f.(11) +. float_of_string f.(12)
  |> fun ticks -> ticks /. 100.0

(* Peak resident set (VmHWM), MiB. *)
let peak_rss_mb pid =
  let s = Util.read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] ->
        float_of_string (List.hd (String.split_on_char ' ' (String.trim v))) /. 1024.0
      | _ -> acc)
    nan (String.split_on_char '\n' s)

(* GET /metrics; returns (series with labels, value) pairs. *)
let scrape t =
  let s = connect t.metrics_port in
  let body =
    Fun.protect ~finally:(fun () -> Unix.close s) (fun () ->
        let req = Bytes.of_string "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n" in
        ignore (Unix.write s req 0 (Bytes.length req));
        let b = Buffer.create 65536 in
        let chunk = Bytes.create 65536 in
        let rec go () =
          match Unix.read s chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n -> Buffer.add_subbytes b chunk 0 n; go ()
        in
        go ();
        Buffer.contents b)
  in
  String.split_on_char '\n' body
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i -> (
             match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
             | Some v -> Some (String.sub line 0 i, v)
             | None -> None))

(* Sum of every series of [name] whose labels contain [label] (e.g.
   {|stage="worker"|}); [name] must match up to the label block. *)
let series_sum scrape ~name ?(label = "") () =
  List.fold_left
    (fun acc (series, v) ->
      let base = match String.index_opt series '{' with Some i -> String.sub series 0 i | None -> series in
      if base = name && (label = "" || Util.find series label <> None) then acc +. v else acc)
    0.0 scrape

(* A spawned [mjoin serve --listen unix:PATH] and one client connection
   to it.  The daemon always leaves through the [shutdown] op; the
   connection is closed only after every response has been read, so it
   is never reset. *)

module Obs = Mj_obs.Obs

type t = {
  pid : int;
  path : string;
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable closed : bool;
}

let reply_timeout_s = 60.0
let counter = ref 0

(* The daemon gets the bench's environment minus every MJ_* variable,
   plus [MJ_FAILPOINTS] when a failpoint is armed on purpose. *)
let is_mj_var kv = String.length kv >= 3 && String.sub kv 0 3 = "MJ_"

let clean_env ?failpoint () =
  let keep =
    List.filter (fun kv -> not (is_mj_var kv))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list
    (match failpoint with
    | None -> keep
    | Some f -> ("MJ_FAILPOINTS=" ^ f) :: keep)

let rec write_all fd s off =
  if off < String.length s then
    let k = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + k)

let read_line t =
  let deadline = Obs.monotonic_time () +. reply_timeout_s in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let s = Buffer.contents t.buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear t.buf;
        Buffer.add_string t.buf (String.sub s (i + 1) (String.length s - i - 1));
        String.sub s 0 i
    | None ->
        let left = deadline -. Obs.monotonic_time () in
        if left <= 0.0 then failwith "daemon reply timed out";
        (match Unix.select [ t.fd ] [] [] left with
        | [], _, _ -> ()
        | _ -> (
            match Unix.read t.fd chunk 0 (Bytes.length chunk) with
            | 0 -> failwith "daemon closed the connection"
            | k -> Buffer.add_subbytes t.buf chunk 0 k));
        go ()
  in
  go ()

(* One round trip; the clock runs from the first request byte written
   to the last response byte read. *)
let call t line =
  let t0 = Obs.monotonic_time () in
  write_all t.fd (line ^ "\n") 0;
  let resp = read_line t in
  (resp, (Obs.monotonic_time () -. t0) *. 1000.)

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let rec connect ~pid path deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if exited pid then failwith "mjoin serve exited before listening";
      if Obs.monotonic_time () > deadline then
        failwith "mjoin serve did not start listening";
      Unix.sleepf 0.0001;
      connect ~pid path deadline

(* Spawn the daemon with default flags and connect once its socket
   accepts.  The socket lives under [_build/], inside the checkout. *)
let start ~mjoin ?failpoint () =
  incr counter;
  let path = Printf.sprintf "_build/mjbench-%d-%d.sock" (Unix.getpid ()) !counter in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close devnull) @@ fun () ->
    Unix.create_process_env mjoin
      [| mjoin; "serve"; "--listen"; "unix:" ^ path |]
      (clean_env ?failpoint ()) devnull Unix.stderr Unix.stderr
  in
  match connect ~pid path (Obs.monotonic_time () +. 30.0) with
  | fd -> { pid; path; fd; buf = Buffer.create 4096; closed = false }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      raise e

(* The daemon's peak resident set (VmHWM), in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc status"
  in
  scan ()

let wait_exit pid =
  let deadline = Obs.monotonic_time () +. 20.0 in
  let rec go () =
    if exited pid then ()
    else if Obs.monotonic_time () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
    end
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

(* Send [shutdown], read its reply, then close: the daemon drains and
   exits 0.  If the connection is unusable, a fresh one carries the op. *)
let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    let send c = ignore (call c (Spec.control_line ~id:0 "shutdown")) in
    let sent = match send t with () -> true | exception _ -> false in
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    (if not sent then
       match connect ~pid:t.pid t.path (Obs.monotonic_time () +. 5.0) with
       | fd ->
           (try send { t with fd; buf = Buffer.create 256 } with _ -> ());
           (try Unix.close fd with Unix.Unix_error _ -> ())
       | exception _ -> ());
    wait_exit t.pid
  end

let with_daemon ~mjoin ?failpoint f =
  let t = start ~mjoin ?failpoint () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

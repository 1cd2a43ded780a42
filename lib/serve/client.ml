(* Minimal synchronous client for the msoc daemon: one blocking
   connection, newline-delimited JSON request/response.  Used by the
   [msoc client] subcommand, the smoke tests and the bench load
   driver. *)

type t = {
  fd : Unix.file_descr;
  chunk : Bytes.t;         (* the connection's one read buffer *)
  partial : Buffer.t;      (* unterminated tail of the bytes read so far *)
  lines : string Queue.t;  (* complete lines not yet returned *)
}

let connect ~socket_path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
  | () -> ()
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e);
  { fd; chunk = Bytes.create 65536; partial = Buffer.create 4096; lines = Queue.create () }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let bytes = Bytes.of_string s in
  let n = Bytes.length bytes in
  let rec go off =
    if off < n then
      match Unix.write fd bytes off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Read the next response line, buffering whatever trails it (the
   protocol allows pipelining). *)
let read_line t =
  let rec go () =
    match Queue.take_opt t.lines with
    | Some line -> Some line
    | None ->
      (match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
      | 0 -> None
      | n ->
        Protocol.split_lines t.partial t.chunk n (fun line -> Queue.add line t.lines);
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let request t req =
  match write_all t.fd (Protocol.request_to_json req ^ "\n") with
  | exception Unix.Unix_error (e, _, _) ->
    Error ("write failed: " ^ Unix.error_message e)
  | () ->
    (match read_line t with
    | None -> Error "connection closed by server before a response arrived"
    | Some line -> Protocol.response_of_json line
    | exception Unix.Unix_error (e, _, _) ->
      Error ("read failed: " ^ Unix.error_message e))

let with_connection ~socket_path f =
  let t = connect ~socket_path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* Child processes of the bench: the msoc binary under test, started with
   the bench's environment and always reaped with wait4 so every run
   learns the child's peak memory.  Only the main domain spawns and
   reaps. *)

type status = { code : int; signal : int; maxrss_kb : int }

external wait4 : int -> int * int * int = "msoc_bench_wait4"

(* Children still running; [stop_all] kills and reaps them so the bench
   never leaves a daemon behind, whatever path it exits by. *)
let live : int list ref = ref []

let rec wait pid =
  match wait4 pid with
  | -1, _, _ -> wait pid (* interrupted: the signal's handler runs on re-entry *)
  | code, signal, maxrss_kb ->
    live := List.filter (( <> ) pid) !live;
    { code; signal; maxrss_kb }

let spawn ?(stdout = Unix.stderr) ?(stderr = Unix.stderr) prog args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) devnull stdout stderr)
  in
  live := pid :: !live;
  pid

(* Run [prog args] to completion; its standard output is returned whole. *)
let run_capture prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close w) (fun () -> spawn ~stdout:w prog args)
  in
  let ic = Unix.in_channel_of_descr r in
  let out = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
  (out, wait pid)

let terminate pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait pid

let stop_all () = List.iter (fun pid -> ignore (terminate pid)) !live

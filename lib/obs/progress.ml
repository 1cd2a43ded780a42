(* Live progress heartbeats: named atomic cells written by the engines
   on their own schedule (per round, per batch, per trial — never per
   cycle) and polled OFF the hot path by a ticker domain that renders a
   one-line status to stderr.

   The cells are plain [float Atomic.t]s: a producer holds the cell it
   obtained once from [cell] and writes it directly, so the hot-path cost
   of a disabled heartbeat is one atomic load (the same bound as the
   telemetry probes, and like them the cells carry no result data — the
   bit-identity contract is untouched). *)

let enabled_flag = Atomic.make false

type cell = { cell_name : string; value : float Atomic.t }

let registry : cell list ref = ref []
let registry_mutex = Mutex.create ()

(* Find-or-register: cells are process-global and live forever, so
   producers fetch them once at module initialisation and renderers look
   the same names up by string. *)
let cell name =
  Mutex.lock registry_mutex;
  let c =
    match List.find_opt (fun c -> String.equal c.cell_name name) !registry with
    | Some c -> c
    | None ->
      let c = { cell_name = name; value = Atomic.make 0.0 } in
      registry := c :: !registry;
      c
  in
  Mutex.unlock registry_mutex;
  c

let value c = Atomic.get c.value
let set c v = if Atomic.get enabled_flag then Atomic.set c.value v

let add c by =
  if Atomic.get enabled_flag then begin
    let rec retry () =
      let old = Atomic.get c.value in
      if not (Atomic.compare_and_set c.value old (old +. by)) then retry ()
    in
    retry ()
  end

let reset () =
  Mutex.lock registry_mutex;
  List.iter (fun c -> Atomic.set c.value 0.0) !registry;
  Mutex.unlock registry_mutex

(* ------------------------------------------------------------------ *)
(* ETA and rendering helpers                                           *)
(* ------------------------------------------------------------------ *)

let eta_s ~done_ ~total ~elapsed_s =
  if done_ <= 0.0 || total <= done_ || elapsed_s <= 0.0 then None
  else Some (elapsed_s *. (total -. done_) /. done_)

let pp_duration s =
  if not (Float.is_finite s) then "?"
  else if s >= 3600.0 then Printf.sprintf "%dh%02dm" (int_of_float s / 3600) (int_of_float s mod 3600 / 60)
  else if s >= 60.0 then Printf.sprintf "%dm%02ds" (int_of_float s / 60) (int_of_float s mod 60)
  else Printf.sprintf "%.0fs" s

(* ------------------------------------------------------------------ *)
(* Ticker                                                              *)
(* ------------------------------------------------------------------ *)

(* The ticker's longest sleep: it checks its stop flag at least this
   often, so [with_ticker] returns within one slice of [f]. *)
let slice_s = 0.05

(* Run [f] with the heartbeat enabled: a dedicated domain wakes every
   [interval_s], calls [render ~elapsed_s] and writes the line to stderr
   — in place (carriage return) on a tty, as plain lines (at a gentler
   cadence) when stderr is a pipe or log file.  The final state is
   always rendered once more after [f] returns, even on exception. *)
let with_ticker ~render f =
  Atomic.set enabled_flag true;
  reset ();
  let tty = Unix.isatty Unix.stderr in
  let interval_s = if tty then 0.2 else 2.0 in
  let stop = Atomic.make false in
  let t0 = Unix.gettimeofday () in
  let emit () =
    let line = render ~elapsed_s:(Unix.gettimeofday () -. t0) in
    if line <> "" then
      if tty then Printf.eprintf "\r\027[K%s%!" line
      else Printf.eprintf "%s\n%!" line
  in
  let ticker =
    Domain.spawn (fun () ->
        let due = ref (t0 +. interval_s) in
        while not (Atomic.get stop) do
          let now = Unix.gettimeofday () in
          if now < !due then Unix.sleepf (Float.min slice_s (!due -. now))
          else begin
            emit ();
            due := now +. interval_s
          end
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join ticker;
      emit ();
      if tty then prerr_newline ();
      Atomic.set enabled_flag false)
    f

(** Live progress heartbeats.

    Named atomic cells written by the engines on their own coarse
    schedule (per round, per batch, per trial) and polled off the hot
    path by a ticker domain rendering a status line to stderr.  Cells
    carry no result data, so heartbeats cannot perturb the pool's
    bit-identity contract; a disabled write costs one atomic load.
    Heartbeats are on only inside {!with_ticker}. *)

type cell

val cell : string -> cell
(** Find-or-register a process-global cell.  Producers call this once
    (at module initialisation) and keep the handle. *)

val value : cell -> float

val set : cell -> float -> unit
(** Overwrite the cell; no-op while disabled. *)

val add : cell -> float -> unit
(** Atomically add to the cell (safe from any domain); no-op while
    disabled. *)

val eta_s : done_:float -> total:float -> elapsed_s:float -> float option
(** Linear remaining-time estimate; [None] until progress is non-zero or
    once the work is complete. *)

val pp_duration : float -> string
(** ["42s"], ["3m07s"], ["1h02m"]. *)

val with_ticker : render:(elapsed_s:float -> string) -> (unit -> 'a) -> 'a
(** [with_ticker ~render f] enables and zeroes the cells, runs [f] while
    a dedicated domain calls [render] every 0.2 s and writes the line to
    stderr — in place on a tty, as plain lines every 2 s otherwise — then
    renders the final state and disables the heartbeat (also on
    exception).  The ticker sleeps in slices of at most 50 ms, so the
    call returns within one slice of [f] whatever the cadence. *)

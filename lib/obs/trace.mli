(** Offline analysis of saved telemetry traces.

    A trace is the JSONL event stream {!Obs.jsonl} exports — an
    [--events] file, a [msoc client --trace-out] file, or a run's own
    export behind [--metrics].  This module parses it and renders every
    other view of it: the text summary, per-slot occupancy over the run's
    wall clock, the critical chain through the span tree, collapsed
    stacks and Chrome trace_event JSON. *)

type span = {
  sp_track : int;  (** recording domain id *)
  sp_slot : int option;  (** pool slot, when the span carried a slot arg *)
  sp_name : string;
  sp_path : string;  (** slash-joined nesting path *)
  sp_ts_ns : float;
  sp_dur_ns : float;
}

type slot = {
  slot : int;
  chunks : int;  (** [pool.chunk] spans it ran *)
  busy_ns : float;  (** their summed duration *)
  steals : int;  (** those taken from another slot's share *)
}

type hist = {
  hist : string;
  hist_count : int;
  sum : float;
  min_value : float;
  max_value : float;
  buckets : (float * float * int) list;
      (** (lower edge, upper edge, count) of each non-empty log2 bucket,
          ascending; the non-positive bucket's lower edge is
          [neg_infinity] and the top bucket's upper edge [infinity] *)
}

type t = {
  spans : span list;
  slots : slot list;
      (** The per-slot fold of the [pool.chunk] spans, ascending by slot:
          every slot of the pools their [size] args name, one that
          claimed no grain included, and the chunks carrying a [victim]
          arg as its steals.  Empty when the run had no pooled work. *)
  counters : (string * float) list;  (** merged totals, sorted by name *)
  hists : hist list;  (** merged across tracks, sorted by name *)
  dropped : (int * int) list;
      (** (track, span events dropped at the recorder's cap), one entry
          per ["track"] record *)
}

val parse : string -> (t, string) result
(** Parse a JSONL event stream.  Resilient to the debris interrupted
    daemons leave behind: unparseable lines (a truncated final line,
    framing junk from concatenated exports) are skipped with a stderr
    warning as long as at least one record survives; only a text with
    nothing salvageable — a Chrome trace among them — or a blank one is
    an [Error], naming the first bad line and the format expected.  A
    record of an unknown type (the ["timeline"] marks of older traces)
    is skipped. *)

val load : string -> (t, string) result
(** [load file] reads [file] and {!parse}s it; errors name the file. *)

type path_stat = { path : string; count : int; total_ns : float; p95_ns : float; max_ns : float }

val by_path : span list -> path_stat list
(** Per span path, sorted by path: count, total, exact p95 (nearest
    rank) and max — the rule of {!summary} and {!Obs.to_prometheus}. *)

val summary : t -> string
(** Every table of the profile: a header line (span events, tracks,
    wall clock), top-level phases with their wall share, the per-path
    span tree (count, total, mean, exact p95, max), counter totals,
    histograms (count, min, mean, p95 bucket bound, max) and, for pooled
    runs, per-domain tracks (events, pool chunks, chunk busy time,
    dropped events). *)

val utilization : t -> string
(** Per-slot occupancy over the pooled window, one row per {!slot}:
    chunk counts, busy time and share, steals, idle time,
    parallel-efficiency figure, and a 60-column text Gantt. *)

val critical_path : t -> string
(** Descend from the hottest root span through the hottest child at each
    nesting level, reporting each hop's share of its parent and of the
    root. *)

val to_folded : t -> string
(** Collapsed-stack (flamegraph.pl) conversion of the span tree: one
    ["a;b;c <weight>"] line per path, sorted, weighted by self time
    (total minus direct children, clamped at zero) in integer
    microseconds. *)

val to_chrome : string -> (string, string) result
(** [to_chrome jsonl] converts a JSONL event stream (parsed as by
    {!parse}) into Chrome trace_event JSON, loadable by chrome://tracing
    or Perfetto: process and per-track thread metadata, then one complete
    ("X") event per span on its domain's track, whose [args] hold the
    span's path and its own args; [ts] and [dur] are microseconds,
    exact to the nanosecond. *)

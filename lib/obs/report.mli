(** Machine-readable bench reports.

    The bench harness historically printed its tables and threw them away;
    this module gives every run a durable, versioned JSON artifact
    ([BENCH_<gitrev>.json] / [BENCH_latest.json]) that the [bench-diff]
    regression gate and the EXPERIMENTS.md trajectory are built on.

    A report is a list of named {e sections} (one per bench section), each
    holding two kinds of rows:

    - {e timings}: Bechamel kernel timings with mean/stddev/sample count,
      the rows the regression gate pairs and tests;
    - {e scalars}: single measured values (speedups, probe overheads)
      reported with a unit label.

    Reports up to schema v4 also carried paper-vs-measured
    [comparisons], and timings written at v3 to v5 latency percentiles
    ([p50_ns], [p99_ns]); both are read and ignored.

    Numbers are emitted with round-trip precision ([%.17g]), so reading
    back a written report gives [Ok r] structurally. *)

type timing = {
  t_name : string;
  mean_ns : float;
  stddev_ns : float;
  samples : int;
  minor_words : float;       (** Mean minor words allocated per iteration. *)
  major_words : float;       (** Mean major words allocated per iteration. *)
  major_collections : float; (** Mean major collections per iteration. *)
}

type bound = Le of float | Ge of float
(** Acceptance bound a scalar declares on itself (schema v4).  The
    [bench-diff] gate regresses a candidate report whose scalar violates
    its own bound — e.g. an annealed/greedy makespan ratio bounded
    [Le 1.0].  Serialized as ["bound_le"] / ["bound_ge"]. *)

type scalar = {
  s_name : string;
  value : float;
  unit_label : string;
  bound : bound option;  (** [None] on rows from v1..v3 reports. *)
}

type section = {
  sec_name : string;
  timings : timing list;
  scalars : scalar list;
}

type meta = {
  version : int;       (** Schema version the file was written with. *)
  git_rev : string;
  ocaml_version : string;
  pool_size : int;
  mode : string;       (** ["quick"] or ["full"]. *)
}

type t = { meta : meta; sections : section list }

val section : t -> string -> section option

(** {2 Incremental construction}

    The bench harness appends rows as its sections run; sections and rows
    keep their insertion order in the finished report. *)

type builder

val create :
  git_rev:string -> pool_size:int -> mode:string -> unit -> builder
(** [ocaml_version] is stamped from [Sys.ocaml_version]. *)

val add_timing :
  builder -> section:string -> name:string -> mean_ns:float ->
  stddev_ns:float -> samples:int -> ?minor_words:float ->
  ?major_words:float -> ?major_collections:float -> unit -> unit
(** The GC fields default to 0.0 (callers without allocation
    instrumentation). *)

val add_scalar :
  builder -> section:string -> name:string -> ?unit_label:string ->
  ?bound:bound -> float -> unit

val finalize : builder -> t

(** {2 Serialization} *)

val write : string -> t -> unit
val read : string -> (t, string) result
(** Structural validation included: an unreadable file, a wrong
    [schema_version], missing fields and type mismatches all yield
    [Error]. *)

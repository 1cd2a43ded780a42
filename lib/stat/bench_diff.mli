(** The bench-regression gate.

    Compares two {!Msoc_obs.Report} bench reports: sections are paired by
    name, their timing rows by kernel name, and each paired timing gets a
    relative delta with a 95% confidence interval (Welch, from
    {!Describe.welch_ci95} on the stored mean/stddev/sample counts).

    A timing {e regresses} when its whole confidence interval sits above
    the tolerance — noisy kernels with wide intervals do not trip the gate,
    genuinely slower ones do.  It {e improves} symmetrically.  Rows present
    on only one side are flagged [Missing_new]/[Missing_old] so a silently
    dropped bench section can never pass for "no regression".

    Scalar rows (coverage fractions, speedups) are compared informationally
    — their delta is reported but it never trips the gate, because their
    good direction is metric-specific.  A scalar that declares its own
    {!Msoc_obs.Report.bound} (schema v4) is the exception: when the
    candidate side violates the bound the row is [Regressed], because the
    bound encodes a kernel invariant (e.g. annealed/greedy makespan
    ratio [<= 1]), not a baseline comparison. *)

type verdict =
  | Improved
  | Unchanged
  | Regressed
  | Missing_new  (** In the old report, absent from the new one. *)
  | Missing_old  (** New row with no baseline — informational. *)
  | Info         (** Scalar row: delta reported, only gated on a violated
                     self-declared bound (then [Regressed] instead). *)

type row = {
  section : string;
  metric : string;
  old_value : float;   (** [nan] for [Missing_old]. *)
  new_value : float;   (** [nan] for [Missing_new]. *)
  delta_pct : float;   (** 100 * (new - old) / old; [nan] when unpaired. *)
  ci_pct : float;      (** 95% half-width of [delta_pct]; 0 for scalars. *)
  verdict : verdict;
  old_minor_words : float;  (** Per-iteration minor words (0 on v1/scalars). *)
  new_minor_words : float;
  noisy : bool;        (** Timing row whose 95% CI spans zero: the verdict
                           is a non-result, warned about in {!render}. *)
  low_samples : bool;  (** Either side of a paired timing ran fewer than
                           {!min_samples} iterations: the interval is
                           built on too little data.  Tagged in {!render},
                           never gates. *)
}

val min_samples : int
(** The per-side iteration count below which a timing row is tagged
    [low_samples] (currently 8). *)

type t = {
  rows : row list;
  regressed : int;     (** [Regressed] timing and bound-violating scalar rows. *)
  missing : int;       (** [Missing_new] rows (sections or timings). *)
  improved : int;
}

val diff : ?tolerance_pct:float -> old_report:Msoc_obs.Report.t ->
  new_report:Msoc_obs.Report.t -> unit -> t
(** Default tolerance 5 (percent). *)

val gate_failed : t -> bool
(** True when anything regressed or went missing — the condition under
    which [msoc_cli bench-diff] exits 3. *)

val render : t -> string
(** Texttable: one row per compared metric (timing rows carry their
    minor-word columns), verdict column last — tagged ["(noisy)"] /
    ["(low samples)"] as applicable — followed by the summary line and a
    warning paragraph counting the noisy rows and the low-sample rows,
    when there are any. *)

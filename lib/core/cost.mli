(** Application cost of one synthesized test procedure.

    A test's tester-time is a pure function of its stimulus shape: one
    setup, then per capture a settling wait followed by the stimulus
    record itself, all clocked at the path's digitizer rate.  Keeping
    this out of the virtual tester lets the SOC scheduler price every
    test without running a waveform. *)

type t = {
  captures : int;           (** Spectrum captures the procedure needs. *)
  record_samples : int;     (** Stimulus record length per capture. *)
  settle_cycles : int;      (** Path settling wait before each capture. *)
  setup_cycles : int;       (** One-time instrument/fixture setup: 64. *)
  sample_rate_hz : float;   (** ATE/digitizer clock the cycles run at. *)
}

val create :
  captures:int -> record_samples:int -> settle_cycles:int -> sample_rate_hz:float -> t
(** @raise Invalid_argument on non-positive captures/records/rate or
    negative settle cycles. *)

val ate_cycles : t -> int
(** [setup + captures * (settle + record)] — the scheduler's unit. *)

val seconds : t -> float
(** [ate_cycles /. sample_rate_hz]. *)

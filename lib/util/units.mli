(** Unit conversions used throughout the mixed-signal test-synthesis stack.

    Conventions: power gains and signal powers are carried in decibels (dB /
    dBm) at the methodology level, and as linear voltage ratios at the
    waveform-simulation level.  All dBm values assume the reference impedance
    {!reference_ohms}. *)

val reference_ohms : float
(** Reference impedance for dBm/volt conversions (50 ohm). *)

val db_of_power_ratio : float -> float
(** [db_of_power_ratio r] is [10 * log10 r].  Requires [r > 0]. *)

val power_ratio_of_db : float -> float
(** Inverse of {!db_of_power_ratio}. *)

val voltage_ratio_of_db : float -> float
(** [voltage_ratio_of_db db] is [10^(db / 20)]. *)

val dbm_of_watts : float -> float
(** [dbm_of_watts p] is the power [p] (in watts) expressed in dBm. *)

val watts_of_dbm : float -> float
(** Inverse of {!dbm_of_watts}. *)

val vpeak_of_dbm : float -> float
(** Peak amplitude of a sine whose power across {!reference_ohms} is the
    given dBm. *)

val dbm_of_vpeak : float -> float
(** Inverse of {!vpeak_of_dbm}. *)

val radians_of_degrees : float -> float

val two_pi : float
(** 2π. *)

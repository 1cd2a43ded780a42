(** Spectral fault diagnosis for the digital filter.

    Detection (§5) asks {e whether} the output spectrum departs from the
    golden one; diagnosis asks {e where} the fault sits.  Each fault's
    deviation spectrum (faulty minus golden, band-integrated into a compact
    energy signature) is nearly unique to its structural site, so a
    dictionary built once by fault simulation localises an observed failure
    to a tap and datapath role — the natural follow-on the paper leaves to
    future work, built here on the netlist's structural region map. *)

module Fir_netlist = Msoc_netlist.Fir_netlist
module Fault = Msoc_netlist.Fault

type signature = float array
(** Band-integrated deviation energies, log-compressed; constant length
    (32 bands) for one dictionary. *)

type entry = {
  fault : Fault.t;
  site : (int * Fir_netlist.role) option;  (** Tap and role, when mapped. *)
  signature : signature;
}

type t
(** A fault dictionary for one filter and stimulus. *)

val build :
  Fir_netlist.t -> sample_rate:float -> input_codes:int array -> faults:Fault.t array -> t
(** Fault-simulate every fault under the stimulus and store its signature.
    Faults with no output deviation are kept with an all-zero signature
    (they can never be diagnosed — or detected). *)

val entries : t -> entry array

val signature_of_stream : t -> int array -> signature
(** Signature of an observed faulty output stream (against the dictionary's
    own golden stream). *)

val diagnose : t -> signature -> entry list
(** Dictionary entries ranked by signature similarity (best first; at most
    10, zero-signature entries excluded). *)

type accuracy = {
  diagnosable : int;        (** Faults with a nonzero signature. *)
  site_match_rate : float;  (** Nearest {e other} entry shares tap and role. *)
  tap_match_rate : float;   (** Nearest other entry shares the tap. *)
}

val clustering_accuracy : t -> sample:int -> seed:int -> accuracy
(** How strongly signatures cluster by structural site: for a random
    sample of diagnosable faults, find the nearest other dictionary entry
    and check whether it shares the site.  High rates mean an observed
    signature localises the failure even when the exact fault is not in
    the dictionary. *)

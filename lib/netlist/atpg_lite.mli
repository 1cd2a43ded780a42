(** Random-pattern fault grading.

    Not a full deterministic ATPG, but the standard baseline it is judged
    against: drive the sequential circuit with random input vectors,
    fault-simulate with early dropping, and report which stuck-at faults
    toggled the outputs.  Two uses in this project:

    - bound the {e activatable} fault set of a filter, separating genuine
      structural redundancy from stimulus weakness;
    - compare the paper's functional sine stimuli against the classic
      random-pattern DFT approach the paper argues they can replace. *)

type config = {
  patterns : int;  (** Cycles of random stimulus; each input bit is 1 with probability 1/2. *)
  seed : int;
}

val default_config : config
(** 1024 patterns, seed 7. *)

type result = {
  total : int;
  detected : int;
  coverage : float;
  detected_flags : bool array;   (** Indexed like the fault array given. *)
  last_useful_pattern : int;
  (** Number of leading patterns that carry all the detections: truncating
      the sweep to this many patterns (same seed) detects exactly the same
      fault set.  0 when nothing was detected. *)
}

val grade :
  ?pool:Msoc_util.Pool.t ->
  Netlist.t -> output:string -> faults:Fault.t array -> config -> result
(** Random-pattern fault grading against a named output bus; a fault is
    detected when any output cycle differs from the fault-free machine.
    With [pool], the underlying fault simulation runs across domains;
    results are bit-identical to the serial path. *)

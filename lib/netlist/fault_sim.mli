(** Stuck-at fault simulation on one engine: a good-value table plus
    cone-reduced fault batches.

    One fault-free reference simulation records every node's value in every
    cycle (the {e good table}).  Faults then pack all {!Logic_sim.lanes}
    lanes of a batch, and each batch evaluates only the reduced program of
    its union cone of influence ({!Cone}); every node outside the cone
    provably carries its fault-free value, which is read back from the
    table.  Faults whose node cannot reach [output] are never simulated.

    {2 Contract}

    - [drive sim cycle] must set all inputs for the given cycle (typically
      via {!Logic_sim.drive_bus}).  It runs {e only} on the single reference
      sim, for cycles [0 .. samples-1] in order, so it may keep state.
    - With [pool], batches run across domains through
      {!Msoc_util.Pool.parallel_iter_grained}.  Every result is
      bit-identical for every pool size, serial (no pool, or size 1)
      included.
    - [output] names the observed bus; an unknown name raises [Not_found]. *)

val observe :
  ?pool:Msoc_util.Pool.t ->
  Netlist.t ->
  output:string ->
  drive:(Logic_sim.t -> int -> unit) ->
  samples:int ->
  faults:Fault.t array ->
  on_fault:(int -> Fault.t -> int array -> 'a) ->
  int array * 'a array
(** Full-stream observer.  Simulates [samples] cycles and calls
    [on_fault index fault stream] exactly once per fault with the fault's
    output stream (one two's-complement bus value per cycle).  Returns the
    fault-free stream and the callback results in fault order.

    A stream is rebuilt from the good stream plus the lane's cone-output
    bits, so it is bit-identical to a dedicated single-fault simulation.  A
    fault outside the output's observable set is never simulated: its
    callback gets the good stream itself, on the calling domain, after the
    batches.

    - [stream] is valid only during the callback and must not be mutated:
      it is a per-worker buffer reused by the next batch (or the good
      stream).  Copy it to keep it.
    - With [pool], [on_fault] runs on the worker domain that simulated
      the fault's batch, concurrently for faults of different batches, in
      no particular order; only the returned array is ordered.  It must be
      safe to call concurrently.

    Exposed telemetry: the ["fault_sim.run"] span, the ["fault_sim.runs"]
    and ["fault_sim.faults"] counters, and the ["fault_sim.batches"] /
    ["fault_sim.batches_total"] progress cells. *)

val detect_exact :
  ?pool:Msoc_util.Pool.t ->
  Netlist.t ->
  output:string ->
  drive:(Logic_sim.t -> int -> unit) ->
  samples:int ->
  faults:Fault.t array ->
  bool array
(** Cheap time-domain detection: a fault is detected as soon as its output
    differs from the fault-free output in any cycle.

    Unlike {!observe}, detection does not replay batches to the end: the
    sweep is cut into 32-cycle chunks against a double-buffered good table,
    and between chunks detected faults are {e dropped} and survivors
    repacked into fewer batches.  The repacking schedule is a pure function
    of the detection prefix, and each fault's flag is a pure predicate of
    (circuit, drive, samples, fault) — so the flags are bit-identical for
    every pool size.

    Exposed telemetry: ["fault_sim.dropped"] counts faults dropped before
    the end of the sweep. *)

val detect_cycles :
  ?pool:Msoc_util.Pool.t ->
  Netlist.t ->
  output:string ->
  drive:(Logic_sim.t -> int -> unit) ->
  samples:int ->
  faults:Fault.t array ->
  int array
(** Like {!detect_exact} but returns, per fault, the first cycle whose
    output differs from the fault-free machine, or [-1] if undetected —
    the graded detection prefix that lets ATPG truncate a sweep to its
    last useful pattern. *)

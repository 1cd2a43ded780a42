(** Stuck-at fault simulation on one engine: pattern-parallel single-fault
    propagation.

    Node order is topological across clock edges (see {!Netlist}), so each
    node's stream is evaluated from its fanins' streams, {!Sys.int_size}
    cycles per machine word, a DFF being a one-cycle shift of its D word.
    The fault-free machine is evaluated once over the whole netlist, gate
    by gate, into the {e good table}.  Each fault is then simulated alone
    over its node's observable forward cone, compiled by one sweep in id
    order, reading every node outside the cone from the table and forcing
    the fault site to the stuck value.  Faults whose node cannot reach
    [output] are never simulated.

    A full adder in [Arith]'s five-gate shape whose three internal nodes
    are private (read only inside the adder, and no bit of [output]) runs
    in a cone as one instruction from its three inputs to its sum and
    carry, unless it holds the fault site.  The adders are recognised
    once per run.

    Faults that {!Fault.classes} proves equivalent give the same output
    stream, so each driver simulates one fault per class, its {e
    representative} (the class's first member in [faults]), and hands
    every other member the representative's result.  The fault list, its
    order and the result array stay those of [faults].

    {2 Contract}

    - [drive sim cycle] must set all inputs for the given cycle (typically
      via {!Logic_sim.drive_bus}).  It runs {e only} on one sim, for cycles
      [0 .. samples-1] in order, so it may keep state; the engine reads the
      inputs back and never evaluates that sim.
    - Faults run across the domains of [pool] (default
      {!Msoc_util.Pool.serial}) through
      {!Msoc_util.Pool.parallel_iter_grained}.  Every result is
      bit-identical for every pool size.
    - [output] names the observed bus; an unknown name raises [Not_found].
    - Every driver publishes the ["fault_sim.faults_done"] /
      ["fault_sim.faults_total"] progress cells, counting simulated
      faults: representatives whose node reaches [output].
    - Every driver counts ["fault_sim.faults"] (every fault),
      ["fault_sim.equivalent"] (the members answered by their class's
      representative, when there are any), ["fault_sim.full_adders"]
      (the adders run as one instruction, when there are any) and
      ["fault_sim.instructions"] (per simulated fault, one add of its
      program length times the words it evaluated).  Each count is the
      same for every pool size. *)

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
    [on_fault index fault stream] exactly once per class of equivalent
    faults, with the representative's index and fault and its output
    stream (one two's-complement bus value per cycle); never for another
    member.  Returns the fault-free stream and the results in fault
    order, each member's slot holding its representative's result (the
    same value).

    A stream is rebuilt from the good stream plus the fault's cone-output
    words, so it is bit-identical to a dedicated single-fault simulation,
    and to every other member's.  A representative outside the output's
    observable set is never simulated: its callback gets the good stream
    itself, on the calling domain, after the simulated faults.

    - [stream] is valid only during the callback and must not be mutated:
      it is a per-worker buffer reused by the next fault (or the good
      stream).  Copy it to keep it.
    - On a pool of several domains, [on_fault] runs on the domain that
      simulated the fault, concurrently for different faults, in no
      particular order; only the returned array is ordered.  It must be
      safe to call concurrently.

    Exposed telemetry: the ["fault_sim.run"] span and the
    ["fault_sim.runs"], ["fault_sim.faults"] and ["fault_sim.equivalent"]
    counters. *)

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

    Unlike {!observe}, detection does not simulate a fault to the end: its
    simulation stops at the first word whose output differs (fault
    dropping).  Each flag is a pure predicate of (circuit, drive, samples,
    fault), so the flags are bit-identical for every pool size; a member
    of a class gets its representative's flag.

    Exposed telemetry: the ["fault_sim.detect"] span, the
    ["fault_sim.detects"], ["fault_sim.faults"] and
    ["fault_sim.equivalent"] counters, and ["fault_sim.dropped"], which
    counts faults (members included) first detected before the last
    word, where their class's simulation stopped. *)

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
    last useful pattern.  A member of a class gets its representative's
    cycle. *)

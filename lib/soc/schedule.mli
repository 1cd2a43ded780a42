(** SOC test scheduling under bus-width and power constraints.

    Every synthesized test of every wrapped core is priced in ATE cycles
    ({!Msoc_synth.Cost} application cost + wrapper load per capture + a
    one-time fixture cost per core) and packed onto the shared ATE:
    at most one test per core at a time, the sum of active wrapper bus
    widths within the SOC test bus, the sum of active core test powers
    within the budget, and per-core prerequisite order preserved.

    Search runs over priority rankings decoded by a deterministic
    event-driven list scheduler — any ranking decodes to a feasible
    schedule.  {!greedy} is the LPT baseline; {!anneal} refines it with
    pooled simulated-annealing restarts.  Determinism contract: restarts
    draw pre-split PRNG streams and the reduction folds in restart-index
    order (strictly better makespan wins), so the result is bit-identical
    at every pool size and never worse than greedy. *)

type test = {
  core : string;          (** Owning core's name. *)
  name : string;          (** ["<core>:<plan step name>"]. *)
  cycles : int;           (** Application + wrapper load (+ fixture). *)
  bus_bits : int;         (** Wrapper TAM width while running. *)
  power_mw : float;       (** Core test power while running. *)
  prereqs : int list;     (** Indices into the problem's test array. *)
}

type problem = { soc : Soc.t; tests : test array }

val problem_of_soc : Soc.t -> problem
(** Synthesize each core's plan (adaptive strategy; cores sharing a
    topology share one synthesis) and price every scheduled step. *)

val audit : Soc.t -> Msoc_synth.Audit.t list
(** The provenance trail of the plans {!problem_of_soc} prices: each
    core's {!Msoc_synth.Plan.audit}, in core order — one record per analog
    parameter per core, each carrying its application cost (before the
    wrapper load and fixture the schedule adds). *)

type placement = { start : int; finish : int }

type result = {
  makespan : int;                 (** Total SOC test time in ATE cycles. *)
  placements : placement array;   (** Indexed like [problem.tests]. *)
}

val decode : problem -> int array -> result
(** Decode a priority ranking ([rank.(i)] = priority of test [i]; lower
    starts earlier among eligible tests).  Pure and deterministic.  In
    production only {!greedy} calls it (the annealer decodes on its own
    compiled scratch); [test_soc]'s decoder properties call it against
    a reference decoder.

    @raise Invalid_argument if the rank's length is not the test count, or
    if the problem has a prerequisite cycle. *)

val greedy : problem -> result
(** Longest-processing-time baseline: descending cycles, ties by index. *)

type anneal_stats = { restarts : int; iterations : int; accepted : int; rejected : int }

val anneal :
  ?restarts:int ->
  ?iters:int ->
  ?seed:int ->
  ?pool:Msoc_util.Pool.t ->
  problem ->
  result * anneal_stats
(** Simulated-annealing refinement (defaults: 8 restarts, 400 moves each,
    seed 42).  Each restart perturbs the greedy ranking and walks rank
    swaps under Metropolis acceptance with geometric cooling.  The
    result's makespan is [<=] {!greedy}'s and bit-identical at every pool
    size ([pool] defaults to {!Msoc_util.Pool.serial}).  Emits [schedule.restarts] and
    [schedule.moves.accepted]/[.rejected] counters and a
    [schedule.anneal] span. *)

val lower_bound : problem -> int
(** A makespan no schedule can beat: the largest of the longest per-core
    chain of cycles; the total cycles over the most cores whose cheapest
    tests fit the bus and power caps together; the cycle-weighted bus
    width over the bus; and the cycle-weighted power over the budget
    (plus the decoder's 1e-9 mW slack).  Valid for positive bus widths
    and powers, as {!Soc.create} guarantees. *)

val check : problem -> result -> (unit, string) Stdlib.result
(** Validate a schedule against every constraint (used by the property
    tests): completeness, durations, prerequisite order, one test per
    core, bus and power loads at every start instant. *)

val seconds : problem -> int -> float
(** Cycles at the SOC's ATE clock. *)

val render : problem -> greedy:result -> annealed:result * anneal_stats -> string
(** Full deterministic schedule table (pool-size independent). *)

val breakdown : problem -> string
(** Per-core application-time table. *)

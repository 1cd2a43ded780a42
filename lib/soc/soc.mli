(** Whole-SOC model: named cores, each an instance of a registered path
    topology behind a test wrapper, sharing one ATE test bus and one
    power budget (after Sehgal/Liu/Ozev/Chakrabarty's wrapped-analog-core
    test planning).

    A core's wrapper trades test-bus width against load time: moving one
    capture's worth of chain through [bus_bits] TAM lines costs
    [ceil(chain_bits / bus_bits)] bus cycles.  {!Schedule} prices every
    synthesized test with this and packs them under the SOC's bus-width
    and power constraints. *)

type wrapper = {
  bus_bits : int;        (** TAM lines assigned to the core. *)
  chain_bits : int;      (** Wrapper chain length loaded per capture. *)
  fixture_cycles : int;  (** One-time per-core fixture/setup cost. *)
}

type core = {
  name : string;
  topology : string;     (** A {!Msoc_analog.Topology} registry name. *)
  wrapper : wrapper;
  power_mw : float;      (** Power drawn while one of its tests runs. *)
}

type t = {
  name : string;
  bus_bits : int;          (** Total SOC test-bus width. *)
  power_budget_mw : float; (** Concurrent test-power ceiling. *)
  ate_clock_hz : float;    (** The clock ATE cycles are counted at: 1 MHz,
                               the default receiver's digitizer rate. *)
  cores : core list;
}

val wrapper_load_cycles : wrapper -> int
(** [ceil(chain_bits / bus_bits)] — bus cycles per capture load. *)

val wrapper : bus_bits:int -> chain_bits:int -> fixture_cycles:int -> wrapper
(** A core's wrapper, for [core].  The registry below is its only
    production caller; [test_soc] builds its fixtures with it. *)

val core : name:string -> topology:string -> wrapper:wrapper -> power_mw:float -> core
(** A core, for {!create}.  The registry below is its only production
    caller; [test_soc] builds its fixtures with it. *)

val create : name:string -> bus_bits:int -> power_budget_mw:float -> core list -> t
(** Validated builder.  Rules: at least one core; unique core names;
    every topology registered; [1 <= wrapper bus <= SOC bus]; chain >= 1;
    fixture >= 0; [0 < core power <= budget].  Only the registry calls it
    in production; [test_soc]'s validation tests and random-SOC
    properties are its other callers.

    @raise Invalid_argument when a rule is violated. *)

val core_count : t -> int

(** {1 Registry}

    Shipped SOC fixtures, selectable by name (CLI [--soc]); sorted by
    name like {!Msoc_analog.Topology.names}. *)

val reference : unit -> t
(** The 4-core reference SOC: rx0/rx1 (default receiver on 8- and 4-bit
    TAMs), sd0 (sigma-delta), lg0 (amp-bypass), on a 16-bit bus with a
    200 mW budget.  Both constraints bind. *)

val names : string list
val find : string -> t option
val summaries : (string * string) list

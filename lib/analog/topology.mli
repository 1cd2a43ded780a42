(** Registry of shipped path topologies, selectable by name (CLI
    [--topology]).  To register a new topology, add an [entry] to the
    registry in [topology.ml]; every consumer (planner, virtual tester,
    bench, property tests) picks it up from here. *)

type entry = { name : string; summary : string; build : unit -> Path.t }

val names : string list
(** Registry names, in the registry's sorted order. *)

val find : string -> entry option
val build : string -> Path.t option
(** Fresh path for a registered name; [None] if unknown. *)

val summaries : (string * string) list

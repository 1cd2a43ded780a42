(** Lane-parallel logic simulation.

    Each net carries a machine word whose 63 bits are independent simulation
    {e lanes}: lane 0 conventionally holds the fault-free machine and lanes
    1..62 hold faulty machines of the same circuit under the same stimulus
    (classic parallel fault simulation).  Stuck-at faults are injected as
    per-node AND/OR masks applied after every evaluation of the node, so a
    fault forces its lane on the node's output net in every cycle.

    Evaluation protocol per cycle:
    {ol {- drive input nets ({!drive_node} / {!drive_bus});}
        {- {!eval} — settle combinational logic (DFF outputs present their
           current state);}
        {- read outputs ({!value} / {!read_bus_lane});}
        {- {!tick} — clock edge: every DFF captures its D input.}} *)

type t

val lanes : int
(** Number of parallel lanes in a word (63). *)

val create : Netlist.t -> t

val clear_faults : t -> unit

val inject : t -> node:Netlist.node -> lane:int -> stuck:bool -> unit
(** Force [node] to [stuck] in [lane].  Requires [0 <= lane < lanes]. *)

val drive_node : t -> Netlist.node -> int -> unit
(** Set the raw lane word of an input node.  Requires an [Input] node. *)

val drive_bus : t -> Netlist.node array -> int -> unit
(** Broadcast an integer (two's complement, LSB-first bus) to all lanes. *)

val eval : t -> unit
(** Settle combinational logic.  Evaluation is event-driven: gates whose
    fanin words are unchanged since the previous [eval] are skipped (their
    held value is provably what recomputation would produce), with an
    automatic fall-back to the dense levelized sweep when the workload
    toggles nearly everything.  Both paths produce bit-identical values;
    the choice depends only on simulated values, never on timing.  Mutation
    escapes the dirty tracking ({!clear_faults}, {!inject}) force
    the next [eval] to run dense. *)

val tick : t -> unit

val snapshot_bit0 : t -> Bytes.t -> pos:int -> unit
(** Record bit 0 (lane 0) of every node's value as one byte per node into
    [buf] at offset [pos] — the fault-free value table consumed by the
    cone-reduced fault-simulation engine. *)

val value : t -> Netlist.node -> int
(** Lane word of a node after {!eval}. *)

val read_bus_lane : t -> Netlist.node array -> lane:int -> int
(** Two's-complement integer on a bus in one lane. *)

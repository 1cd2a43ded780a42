(** Lane-parallel logic simulation: the reference model.

    Each net carries a machine word whose 63 bits are independent simulation
    {e lanes}, each a machine of the same circuit under the same stimulus.
    Stuck-at faults are injected as per-node AND/OR masks applied after
    every evaluation of the node, so a fault forces its lane on the node's
    output net in every cycle.  A single-fault run of this model (the fault
    in lane 0) is the reference that {!Fault_sim}'s streams are tested
    against.

    Evaluation protocol per cycle:
    {ol {- drive input nets ({!drive_node} / {!drive_bus});}
        {- {!eval} — settle combinational logic (DFF outputs present their
           current state);}
        {- read outputs ({!value} / {!read_bus_lane});}
        {- {!tick} — clock edge: every DFF captures its D input.}} *)

type t

val create : Netlist.t -> t

val inject : t -> node:Netlist.node -> lane:int -> stuck:bool -> unit
(** Force [node] to [stuck] in [lane].  Requires [0 <= lane < 63]. *)

val drive_node : t -> Netlist.node -> int -> unit
(** Set the raw lane word of an input node.  Requires an [Input] node. *)

val drive_bus : t -> Netlist.node array -> int -> unit
(** Broadcast an integer (two's complement, LSB-first bus) to all lanes. *)

val input_word : t -> Netlist.node -> int
(** The lane word last driven onto an input node (0 before any drive). *)

val eval : t -> unit
(** Settle combinational logic: one levelized sweep of every gate. *)

val tick : t -> unit

val value : t -> Netlist.node -> int
(** Lane word of a node after {!eval}. *)

val read_bus_lane : t -> Netlist.node array -> lane:int -> int
(** Two's-complement integer on a bus in one lane. *)

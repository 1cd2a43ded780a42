(** Observability: which nodes can reach an observed output.

    A stuck-at fault on node [s] can only change the values of nodes in
    the transitive fanout of [s] (crossing DFF D→Q edges carries the effect
    across clock cycles), and it can only be detected if that fanout
    reaches an observed output. *)

val observable : Netlist.t -> output:Netlist.node array -> bool array
(** Reverse reachability from the output bus through fanin edges (crossing
    DFFs): a fault on a node outside this set can never be detected. *)

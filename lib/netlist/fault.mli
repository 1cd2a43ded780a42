(** Single-stuck-at fault model.

    Faults live on node outputs (net stems).  The universe enumerates
    stuck-at-0 and stuck-at-1 on every non-constant node; {!collapse}
    removes the classical equivalences that single-input gates induce
    (a stuck fault at the output of a BUF, NOT or DFF whose driver has no
    other fanout is indistinguishable from the corresponding fault on the
    driver), so coverage percentages are reported over collapsed classes as
    a structural fault simulator would.  {!classes} goes further, for the
    simulator's sake only: it adds the gate-input equivalence of two-input
    gates, and it never changes a reported list. *)

type t = { node : Netlist.node; stuck : bool }

val pp : Format.formatter -> t -> unit
(** ["n<node>/sa<0|1>"].  No production code prints a fault: its callers
    are [test/golden_gen], which prints [faultsim_records.txt] with it,
    and [test_netlist]'s failure messages. *)

val universe : Netlist.t -> t array
(** Both polarities on every [Input], gate and [Dff] node (constants are
    excluded: a stuck constant is either redundant or a different circuit). *)

val collapse : Netlist.t -> t array -> t array
(** Keep one representative per equivalence class: the driver-side end of
    each chain, the polarity flipped through every inverter. *)

val classes : Netlist.t -> output:Netlist.node array -> t array -> int array
(** [classes circuit ~output faults] maps each fault to the index of its
    equivalence class's first member in [faults]; a fault that is its
    class's first member maps to its own index.  Two faults of one class
    give the same value on [output] in every cycle under every stimulus.

    The relation is the union of these pairs, over nodes [d] that are
    {e private}: [d] has exactly one fanout edge, is not a constant and
    is not a bit of [output] (the bus is observed directly, and
    {!Netlist.fanout_count} does not count it):
    - AND and NAND gates with a private fanin [d] ([d] is then not the
      gate's other fanin too, which would make two fanout edges):
      [d]/sa0 is the AND's output /sa0, the NAND's /sa1;
    - OR and NOR gates likewise: [d]/sa1 is the OR's output /sa1, the
      NOR's /sa0;
    - BUF and NOT of a private [d]: both polarities, flipped by NOT;
    - DFF of a private [d]: /sa0 only, because the reset state is 0 (a
      stuck-at-1 D input still leaves 0 in the first cycle).

    Allocates only flat arrays sized by the node count, and the result:
    no table, and nothing per fault. *)

(** Single-stuck-at fault model.

    Faults live on node outputs (net stems).  The universe enumerates
    stuck-at-0 and stuck-at-1 on every non-constant node; {!collapse}
    removes the classical equivalences that single-input gates induce
    (a stuck fault at the output of a BUF, NOT or DFF whose driver has no
    other fanout is indistinguishable from the corresponding fault on the
    driver), so coverage percentages are reported over collapsed classes as
    a structural fault simulator would. *)

type t = { node : Netlist.node; stuck : bool }

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val universe : Netlist.t -> t array
(** Both polarities on every [Input], gate and [Dff] node (constants are
    excluded: a stuck constant is either redundant or a different circuit). *)

val collapse : Netlist.t -> t array -> t array
(** Keep one representative per equivalence class: the driver-side end of
    each chain, the polarity flipped through every inverter. *)

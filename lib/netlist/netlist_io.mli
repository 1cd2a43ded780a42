(** Text serialization of netlists, in an ISCAS89-like format.

    One declaration per line:
    {v
    # comment
    INPUT(n3)
    OUTPUT(y 12 7 3)        # named bus, LSB first
    n5 = AND(n3, n4)
    n6 = NOT(n5)
    n7 = DFF(n6)
    n8 = CONST0
    v}

    Node names are [n<id>] with ids dense from 0 in definition order, so a
    dump/parse round trip reproduces the netlist exactly (same ids, same
    order).  The format exists so synthesized filters can be archived,
    diffed, and exchanged with external structural tools. *)

val to_string : Netlist.t -> string

val of_string : string -> Netlist.t
(** Raises [Failure] with a line-numbered message on malformed input. *)

val save : string -> Netlist.t -> unit
(** Write to a file path. *)

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

val save : string -> Netlist.t -> unit
(** Write to a file path ([msoc netlist --output]). *)

val of_string : string -> Netlist.t
(** Parse the text {!save} writes.  Raises [Failure] with a line-numbered
    message on malformed input.  No tool reads netlists back yet: the
    round-trip and malformed-input tests of [test_netlist] are its
    callers. *)

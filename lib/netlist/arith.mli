(** Two's-complement datapath generators.

    Buses are node arrays, LSB first.  All generators keep the invariant
    that the bus width is large enough for the value range they produce, so
    ripple adders may discard their final carry without overflow. *)

type bus = Netlist.node array

val sign_extend : Netlist.Builder.t -> bus -> width:int -> bus
(** Widen by replicating the sign bit (through buffers so the extension is
    a real circuit net).  Requires [width >=] current width. *)

val add_signed : Netlist.Builder.t -> bus -> bus -> width:int -> bus
(** Sign-extend both operands to [width] and add through a ripple-carry
    adder of full adders (carry-out discarded, so the sum is mod
    2^width).  Requires [width] to be at least one more than the wider
    operand for overflow freedom. *)

val scale_const : Netlist.Builder.t -> bus -> coeff:int -> width:int -> bus
(** Multiply a signed bus by a constant using a shift-add network over the
    constant's canonical signed digits (digits ±1, no two adjacent — the
    form with the fewest nonzero digits, so one adder per digit after the
    first, plus a negation when the first is -1), producing a [width]-bit
    result.  [coeff = 0] gives a constant-zero bus.  Requires [width]
    wide enough for [coeff * x] over the full input range. *)

val register_bus : Netlist.Builder.t -> bus -> bus
(** One DFF per wire. *)

val width_for_product : input_width:int -> coeff:int -> int
(** Bits needed to hold [coeff * x] for any [input_width]-bit signed [x]. *)

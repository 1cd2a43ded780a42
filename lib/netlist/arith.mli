(** Two's-complement datapath generators.

    Buses are node arrays, LSB first.  All generators keep the invariant
    that the bus width is large enough for the value range they produce, so
    ripple adders may discard their final carry without overflow. *)

type bus = Netlist.node array

val const_bus : Netlist.Builder.t -> width:int -> int -> bus
(** Two's-complement constant.  Requires the value to fit in [width] bits. *)

val sign_extend : Netlist.Builder.t -> bus -> width:int -> bus
(** Widen by replicating the sign bit (through buffers so the extension is
    a real circuit net).  Requires [width >=] current width. *)

val ripple_add : Netlist.Builder.t -> bus -> bus -> cin:Netlist.node -> bus
(** Equal-width addition, carry-out discarded (mod 2^width). *)

val add_signed : Netlist.Builder.t -> bus -> bus -> width:int -> bus
(** Sign-extend both operands to [width] and add.  Requires [width] to be at
    least one more than the wider operand for overflow freedom. *)

val negate : Netlist.Builder.t -> bus -> width:int -> bus
(** Two's-complement negation into [width] bits. *)

val csd_digits : int -> (int * int) list
(** Canonical-signed-digit decomposition: [(weight, digit)] pairs with
    [digit = ±1], no two adjacent weights, summing to the argument.
    [csd_digits 0 = \[\]]. *)

val scale_const : Netlist.Builder.t -> bus -> coeff:int -> width:int -> bus
(** Multiply a signed bus by a constant using a CSD shift-add network,
    producing a [width]-bit result.  Requires [width] wide enough for
    [coeff * x] over the full input range. *)

val multiply_signed : Netlist.Builder.t -> bus -> bus -> bus
(** General two's-complement array multiplier (shift-add rows with a
    subtracted sign row — Baugh–Wooley style).  Result width is the sum of
    the operand widths, which holds every product exactly. *)

val register_bus : Netlist.Builder.t -> bus -> bus
(** One DFF per wire. *)

val width_for_product : input_width:int -> coeff:int -> int
(** Bits needed to hold [coeff * x] for any [input_width]-bit signed [x]. *)

val width_for_sum : widths:int list -> int
(** Bits needed to hold the sum of values of the given signed widths. *)

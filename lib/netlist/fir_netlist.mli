(** Gate-level FIR filter datapath (transposed direct form).

    This is the "digital filter" of the paper's experimental path: each tap
    multiplies the current input by a fixed quantized coefficient through a
    CSD shift-add network, and a register chain accumulates the delayed
    partial sums, so [y(n) = sum_k c_k x(n-k)] with no pipeline latency.

    The structure exposes the input bus name ["x"] and output bus name
    ["y"]; the output is full accumulator width so that the integer netlist
    response matches {!response} (the behavioural golden model) exactly. *)

type role = Multiplier | Register | Adder

type architecture =
  | Transposed  (** Register chain carries partial sums (default). *)
  | Direct      (** Input delay line feeding a balanced adder tree. *)

type region = {
  tap : int;
  role : role;
  first_node : Netlist.node;
  last_node : Netlist.node;   (** Inclusive. *)
}

type t = {
  circuit : Netlist.t;
  coeffs : int array;        (** Quantized coefficients as driven. *)
  width_in : int;
  width_acc : int;
  scale : float;             (** [coefficient = code * scale]. *)
  regions : region list;     (** Structural map for fault-site selection. *)
}

val output_bus_name : string

val fault_site : t -> tap:int -> role:role -> Fault.t
(** A representative stuck-at fault inside the requested element (the
    middle node of its region, stuck-at-1).  Raises [Not_found] when the
    element does not exist (e.g. [Multiplier] of a zero coefficient). *)

val role_name : role -> string

val max_width_in : int array -> int
(** The widest input the coefficients allow: the datapath is sized from
    the accumulator bound [(sum |c|) * 2^(width_in - 1)], which must fit a
    native int. *)

val create :
  coeffs:int array -> width_in:int -> ?scale:float -> ?architecture:architecture ->
  unit -> t
(** Build the datapath.  Requires at least one tap and
    [2 <= width_in <= max_width_in coeffs] (raises [Invalid_argument]
    naming [width_in] otherwise), and every coefficient nonzero-width
    representable.  [scale] defaults to 1,
    [architecture] to {!Transposed}.  Both architectures compute the same
    [y(n) = sum_k c_k x(n-k)] with zero latency, so {!response} is the
    golden model for either. *)

val output_bus : t -> Netlist.node array

val drive : t -> Logic_sim.t -> int -> unit
(** Drive one input sample (clamped to the representable signed range). *)

val response : t -> int array -> int array
(** Behavioural integer golden model: exact expected netlist output. *)

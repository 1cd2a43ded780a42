(** Gate-level netlist intermediate representation.

    The digital filter under test is synthesised into this IR (full adders,
    shift-add constant multipliers, DFF tap registers) so that the classic
    single-stuck-at fault model of the paper can be applied to a real
    structural implementation rather than a behavioural one.

    A netlist is built imperatively through {!Builder} and then frozen into
    an immutable {!t} whose flat arrays the simulators consume.

    {b Node order is topological across clock edges.}  The builder rejects
    any reference to a node that does not exist yet, so every fanin of a
    node, a DFF's D input included, has a smaller id than the node.  No
    netlist can therefore hold a combinational cycle or DFF feedback, and
    a node's value in every cycle is a function of the values of
    smaller-id nodes in that cycle and the one before; {!Fault_sim} relies
    on this. *)

type kind =
  | Input
  | Const0
  | Const1
  | And2
  | Or2
  | Nand2
  | Nor2
  | Xor2
  | Xnor2
  | Not
  | Buf
  | Dff  (** Fanin 0 is D; output is Q (state, updated at end of cycle). *)

type node = int
(** Dense node identifier; also the identifier of the node's output net. *)

module Builder : sig
  type t

  val create : unit -> t
  val input : t -> string -> node
  val const : t -> bool -> node
  val gate2 : t -> kind -> node -> node -> node
  (** Requires a two-input [kind] (And2 .. Xnor2). *)

  val not_ : t -> node -> node
  val buf : t -> node -> node
  val dff : t -> node -> node
  (** [dff b d] is a flip-flop capturing [d]; initial state 0. *)

  val output : t -> string -> node array -> unit
  (** Declare a named output bus (LSB first). *)

  val node_count : t -> int
end

type t

val freeze : Builder.t -> t
(** Seal the netlist. *)

val node_count : t -> int
val kind : t -> node -> kind
val fanin : t -> node -> node array
val fanout_count : t -> node -> int

val fanin0 : t -> node -> node
(** First fanin of the node, or [-1] when the node is a source.
    Allocation-free (unlike {!fanin}), for graph traversals. *)

val fanin1 : t -> node -> node
(** Second fanin of the node, or [-1] when the node has arity < 2. *)

val inputs : t -> (string * node) array
val outputs : t -> (string * node array) array
val find_output : t -> string -> node array
(** Raises [Not_found]. *)

val eval_order : t -> node array
(** Combinational nodes in id order, a dependency order (inputs, constants
    and DFF outputs are sources and do not appear). *)

val dffs : t -> node array
(** All flip-flop nodes. *)

val gate_counts : t -> (kind * int) list
(** Census by gate kind, for reporting. *)

val pp_stats : Format.formatter -> t -> unit

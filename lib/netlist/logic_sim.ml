let lanes = 63
let all_ones = -1 (* every usable bit of a native int *)

(* Dense opcode encoding of the evaluation order, flattened so that the hot
   loop touches only int arrays. *)
let op_and = 0
let op_or = 1
let op_nand = 2
let op_nor = 3
let op_xor = 4
let op_xnor = 5
let op_not = 6
let op_buf = 7

type t = {
  circuit : Netlist.t;
  values : int array;       (* lane word per node *)
  raw_inputs : int array;   (* per node, only meaningful for Input nodes *)
  and_mask : int array;     (* fault masks: v' = v land and lor or *)
  or_mask : int array;
  (* flattened combinational program *)
  prog_op : int array;
  prog_dst : int array;
  prog_a : int array;
  prog_b : int array;
  input_nodes : int array;
  const0_nodes : int array;
  const1_nodes : int array;
  dff_nodes : int array;
  dff_d : int array;
  dff_state : int array;
}

let create circuit =
  let n = Netlist.node_count circuit in
  let order = Netlist.eval_order circuit in
  let m = Array.length order in
  let prog_op = Array.make m 0 and prog_dst = Array.make m 0 in
  let prog_a = Array.make m 0 and prog_b = Array.make m 0 in
  Array.iteri
    (fun i node ->
      let fanin = Netlist.fanin circuit node in
      prog_dst.(i) <- node;
      prog_a.(i) <- fanin.(0);
      prog_b.(i) <- (if Array.length fanin > 1 then fanin.(1) else fanin.(0));
      prog_op.(i) <-
        (match Netlist.kind circuit node with
        | Netlist.And2 -> op_and
        | Netlist.Or2 -> op_or
        | Netlist.Nand2 -> op_nand
        | Netlist.Nor2 -> op_nor
        | Netlist.Xor2 -> op_xor
        | Netlist.Xnor2 -> op_xnor
        | Netlist.Not -> op_not
        | Netlist.Buf -> op_buf
        | Netlist.Input | Netlist.Const0 | Netlist.Const1 | Netlist.Dff ->
          invalid_arg "Logic_sim.create: source node in evaluation order"))
    order;
  let nodes_of_kind k =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if Netlist.kind circuit i = k then acc := i :: !acc
    done;
    Array.of_list !acc
  in
  let dff_nodes = Netlist.dffs circuit in
  { circuit;
    values = Array.make n 0;
    raw_inputs = Array.make n 0;
    and_mask = Array.make n all_ones;
    or_mask = Array.make n 0;
    prog_op;
    prog_dst;
    prog_a;
    prog_b;
    input_nodes = nodes_of_kind Netlist.Input;
    const0_nodes = nodes_of_kind Netlist.Const0;
    const1_nodes = nodes_of_kind Netlist.Const1;
    dff_nodes;
    dff_d = Array.map (fun d -> (Netlist.fanin circuit d).(0)) dff_nodes;
    dff_state = Array.make (Array.length dff_nodes) 0 }

let inject t ~node ~lane ~stuck =
  assert (lane >= 0 && lane < lanes);
  let bit = 1 lsl lane in
  if stuck then t.or_mask.(node) <- t.or_mask.(node) lor bit
  else t.and_mask.(node) <- t.and_mask.(node) land lnot bit

let drive_node t node word =
  assert (Netlist.kind t.circuit node = Netlist.Input);
  t.raw_inputs.(node) <- word

let drive_bus t bus value =
  Array.iteri
    (fun i node -> drive_node t node (if (value lsr i) land 1 = 1 then all_ones else 0))
    bus

let input_word t node = t.raw_inputs.(node)

let eval t =
  let values = t.values and am = t.and_mask and om = t.or_mask in
  (* Sources first: inputs, constants, DFF outputs — all fault-maskable. *)
  let inputs = t.input_nodes in
  for i = 0 to Array.length inputs - 1 do
    let node = Array.unsafe_get inputs i in
    Array.unsafe_set values node
      (Array.unsafe_get t.raw_inputs node
       land Array.unsafe_get am node
       lor Array.unsafe_get om node)
  done;
  let c0 = t.const0_nodes in
  for i = 0 to Array.length c0 - 1 do
    let node = Array.unsafe_get c0 i in
    Array.unsafe_set values node (Array.unsafe_get om node)
  done;
  let c1 = t.const1_nodes in
  for i = 0 to Array.length c1 - 1 do
    let node = Array.unsafe_get c1 i in
    Array.unsafe_set values node (Array.unsafe_get am node lor Array.unsafe_get om node)
  done;
  let dffs = t.dff_nodes in
  for i = 0 to Array.length dffs - 1 do
    let node = Array.unsafe_get dffs i in
    Array.unsafe_set values node
      (Array.unsafe_get t.dff_state i
       land Array.unsafe_get am node
       lor Array.unsafe_get om node)
  done;
  (* Combinational program. *)
  let prog_op = t.prog_op and prog_dst = t.prog_dst in
  let prog_a = t.prog_a and prog_b = t.prog_b in
  for i = 0 to Array.length prog_op - 1 do
    let a = Array.unsafe_get values (Array.unsafe_get prog_a i) in
    let b = Array.unsafe_get values (Array.unsafe_get prog_b i) in
    let v =
      match Array.unsafe_get prog_op i with
      | 0 -> a land b
      | 1 -> a lor b
      | 2 -> lnot (a land b)
      | 3 -> lnot (a lor b)
      | 4 -> a lxor b
      | 5 -> lnot (a lxor b)
      | 6 -> lnot a
      | _ -> a
    in
    let dst = Array.unsafe_get prog_dst i in
    Array.unsafe_set values dst
      (v land Array.unsafe_get am dst lor Array.unsafe_get om dst)
  done

let tick t =
  let values = t.values in
  for i = 0 to Array.length t.dff_nodes - 1 do
    t.dff_state.(i) <- Array.unsafe_get values (Array.unsafe_get t.dff_d i)
  done

let value t node = t.values.(node)

let sign_extend width v = if (v lsr (width - 1)) land 1 = 1 then v - (1 lsl width) else v

let read_bus_lane t bus ~lane =
  let acc = ref 0 in
  Array.iteri (fun i node -> acc := !acc lor (((t.values.(node) lsr lane) land 1) lsl i)) bus;
  sign_extend (Array.length bus) !acc

type reduced = {
  prog_op : int array;
  prog_dst : int array;
  prog_a : int array;
  prog_b : int array;
  boundary : int array;
  inputs : int array;
  dffs : int array;
  dff_d : int array;
  outputs : int array;
  output_bits : int array;
}

type scratch = {
  mark : int array; (* generation stamp per node: cone membership *)
  bmark : int array; (* generation stamp per node: boundary dedup *)
  queue : int array;
  mutable gen : int;
}

let scratch circuit =
  let n = Netlist.node_count circuit in
  { mark = Array.make n 0; bmark = Array.make n 0; queue = Array.make n 0; gen = 0 }

let observable circuit ~output =
  let n = Netlist.node_count circuit in
  let seen = Array.make n false in
  let stack = ref [] in
  Array.iter
    (fun o ->
      if not seen.(o) then begin
        seen.(o) <- true;
        stack := o :: !stack
      end)
    output;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | u :: rest ->
      stack := rest;
      let visit v =
        if v >= 0 && not seen.(v) then begin
          seen.(v) <- true;
          stack := v :: !stack
        end
      in
      visit (Netlist.fanin0 circuit u);
      visit (Netlist.fanin1 circuit u)
  done;
  seen

let op_of_kind = function
  | Netlist.And2 -> 0
  | Netlist.Or2 -> 1
  | Netlist.Nand2 -> 2
  | Netlist.Nor2 -> 3
  | Netlist.Xor2 -> 4
  | Netlist.Xnor2 -> 5
  | Netlist.Not -> 6
  | Netlist.Buf -> 7
  | Netlist.Input | Netlist.Const0 | Netlist.Const1 | Netlist.Dff ->
    invalid_arg "Cone.op_of_kind: not a combinational gate"

let reduce circuit sc ~succ ~observable ~sources ~output =
  sc.gen <- sc.gen + 1;
  let g = sc.gen in
  let mark = sc.mark and bmark = sc.bmark and queue = sc.queue in
  let tail = ref 0 in
  List.iter
    (fun s ->
      if observable.(s) && mark.(s) <> g then begin
        mark.(s) <- g;
        queue.(!tail) <- s;
        incr tail
      end)
    sources;
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let out = succ.(u) in
    for k = 0 to Array.length out - 1 do
      let v = Array.unsafe_get out k in
      if observable.(v) && mark.(v) <> g then begin
        mark.(v) <- g;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  let member x = mark.(x) = g in
  (* Classify members in ascending node order (one O(n) pass keeps the
     dffs array sorted, which the fault-sim state repack binary-searches). *)
  let inputs = ref [] and dffs = ref [] and dff_d = ref [] and boundary = ref [] in
  let add_boundary v =
    if v >= 0 && (not (member v)) && bmark.(v) <> g then begin
      bmark.(v) <- g;
      boundary := v :: !boundary
    end
  in
  let n = Netlist.node_count circuit in
  for x = 0 to n - 1 do
    if member x then
      match Netlist.kind circuit x with
      | Netlist.Input -> inputs := x :: !inputs
      | Netlist.Dff ->
        let d = Netlist.fanin0 circuit x in
        dffs := x :: !dffs;
        dff_d := d :: !dff_d;
        add_boundary d
      | Netlist.Const0 | Netlist.Const1 ->
        (* Constants have no fanin, so they are never reached by the BFS. *)
        assert false
      | _ -> ()
  done;
  (* Program: member combinational gates in global eval order, reading
     non-member fanins from the boundary. *)
  let order = Netlist.eval_order circuit in
  let count = ref 0 in
  Array.iter (fun x -> if member x then incr count) order;
  let m = !count in
  let prog_op = Array.make m 0
  and prog_dst = Array.make m 0
  and prog_a = Array.make m 0
  and prog_b = Array.make m 0 in
  let pos = ref 0 in
  Array.iter
    (fun x ->
      if member x then begin
        let a = Netlist.fanin0 circuit x in
        let b0 = Netlist.fanin1 circuit x in
        let b = if b0 >= 0 then b0 else a in
        add_boundary a;
        if b0 >= 0 then add_boundary b0;
        let i = !pos in
        prog_op.(i) <- op_of_kind (Netlist.kind circuit x);
        prog_dst.(i) <- x;
        prog_a.(i) <- a;
        prog_b.(i) <- b;
        incr pos
      end)
    order;
  let output_bits =
    List.init (Array.length output) Fun.id
    |> List.filter (fun w -> member output.(w))
    |> Array.of_list
  in
  { prog_op;
    prog_dst;
    prog_a;
    prog_b;
    boundary = Array.of_list (List.rev !boundary);
    inputs = Array.of_list (List.rev !inputs);
    dffs = Array.of_list (List.rev !dffs);
    dff_d = Array.of_list (List.rev !dff_d);
    outputs = Array.map (fun w -> output.(w)) output_bits;
    output_bits }

let eval_program red ~values ~and_mask ~or_mask =
  let prog_op = red.prog_op
  and prog_dst = red.prog_dst
  and prog_a = red.prog_a
  and prog_b = red.prog_b in
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
      (v land Array.unsafe_get and_mask dst lor Array.unsafe_get or_mask dst)
  done

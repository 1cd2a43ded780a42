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
  | Dff

type node = int

let arity = function
  | Input | Const0 | Const1 -> 0
  | Not | Buf | Dff -> 1
  | And2 | Or2 | Nand2 | Nor2 | Xor2 | Xnor2 -> 2

let kind_name = function
  | Input -> "input"
  | Const0 -> "const0"
  | Const1 -> "const1"
  | And2 -> "and2"
  | Or2 -> "or2"
  | Nand2 -> "nand2"
  | Nor2 -> "nor2"
  | Xor2 -> "xor2"
  | Xnor2 -> "xnor2"
  | Not -> "not"
  | Buf -> "buf"
  | Dff -> "dff"

module Builder = struct
  type entry = { kind : kind; f0 : node; f1 : node }

  type t = {
    mutable entries : entry list; (* reversed *)
    mutable count : int;
    mutable input_names : (string * node) list; (* reversed *)
    mutable output_buses : (string * node array) list; (* reversed *)
  }

  let create () = { entries = []; count = 0; input_names = []; output_buses = [] }

  let push b kind f0 f1 =
    let id = b.count in
    b.entries <- { kind; f0; f1 } :: b.entries;
    b.count <- id + 1;
    id

  let check_ref b n label =
    if n < 0 || n >= b.count then
      invalid_arg (Printf.sprintf "Netlist.Builder: %s references undefined node %d" label n)

  let input b name =
    let id = push b Input (-1) (-1) in
    b.input_names <- (name, id) :: b.input_names;
    id

  let const b value = push b (if value then Const1 else Const0) (-1) (-1)

  let gate2 b kind a c =
    if arity kind <> 2 then invalid_arg "Netlist.Builder.gate2: not a two-input kind";
    check_ref b a "gate2";
    check_ref b c "gate2";
    push b kind a c

  let not_ b a =
    check_ref b a "not";
    push b Not a (-1)

  let buf b a =
    check_ref b a "buf";
    push b Buf a (-1)

  let dff b d =
    check_ref b d "dff";
    push b Dff d (-1)

  let output b name bus =
    Array.iter (fun n -> check_ref b n "output") bus;
    b.output_buses <- (name, Array.copy bus) :: b.output_buses

  let node_count b = b.count
end

type t = {
  kinds : kind array;
  f0 : int array;
  f1 : int array;
  fanouts : int array;
  ins : (string * node) array;
  outs : (string * node array) array;
  order : node array; (* combinational nodes in dependency order *)
  dff_nodes : node array;
}

let freeze (b : Builder.t) =
  let n = b.Builder.count in
  let kinds = Array.make n Input and f0 = Array.make n (-1) and f1 = Array.make n (-1) in
  List.iteri
    (fun i (e : Builder.entry) ->
      let id = n - 1 - i in
      kinds.(id) <- e.Builder.kind;
      f0.(id) <- e.Builder.f0;
      f1.(id) <- e.Builder.f1)
    b.Builder.entries;
  let fanouts = Array.make n 0 in
  let bump src = if src >= 0 then fanouts.(src) <- fanouts.(src) + 1 in
  for i = 0 to n - 1 do
    if arity kinds.(i) >= 1 then bump f0.(i);
    if arity kinds.(i) >= 2 then bump f1.(i)
  done;
  (* Builder.check_ref makes every fanin older than its reader, so id
     order is already topological. *)
  let order =
    List.filter
      (fun i -> match kinds.(i) with Input | Const0 | Const1 | Dff -> false | _ -> true)
      (List.init n Fun.id)
  in
  let dff_nodes = List.filter (fun i -> kinds.(i) = Dff) (List.init n Fun.id) in
  { kinds;
    f0;
    f1;
    fanouts;
    ins = Array.of_list (List.rev b.Builder.input_names);
    outs = Array.of_list (List.rev b.Builder.output_buses);
    order = Array.of_list order;
    dff_nodes = Array.of_list dff_nodes }

let node_count t = Array.length t.kinds
let kind t i = t.kinds.(i)

let fanin t i =
  match arity t.kinds.(i) with
  | 0 -> [||]
  | 1 -> [| t.f0.(i) |]
  | _ -> [| t.f0.(i); t.f1.(i) |]

let fanout_count t i = t.fanouts.(i)

(* Allocation-free fanin accessors for graph traversals: [-1] when the slot
   does not exist for the node's arity. *)
let fanin0 t i = if arity t.kinds.(i) >= 1 then t.f0.(i) else -1
let fanin1 t i = if arity t.kinds.(i) >= 2 then t.f1.(i) else -1

let inputs t = t.ins
let outputs t = t.outs

let find_output t name =
  let rec scan i =
    if i >= Array.length t.outs then raise Not_found
    else begin
      let n, bus = t.outs.(i) in
      if String.equal n name then bus else scan (i + 1)
    end
  in
  scan 0

let eval_order t = t.order
let dffs t = t.dff_nodes

let gate_counts t =
  let table = Hashtbl.create 16 in
  Array.iter
    (fun k ->
      let current = match Hashtbl.find_opt table k with Some c -> c | None -> 0 in
      Hashtbl.replace table k (current + 1))
    t.kinds;
  List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) table [])

let pp_stats ppf t =
  Format.fprintf ppf "nodes=%d comb=%d dff=%d inputs=%d outputs=%d" (node_count t)
    (Array.length t.order) (Array.length t.dff_nodes) (Array.length t.ins)
    (Array.length t.outs);
  List.iter (fun (k, c) -> Format.fprintf ppf " %s=%d" (kind_name k) c) (gate_counts t)

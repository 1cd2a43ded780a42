type t = { node : Netlist.node; stuck : bool }

let pp ppf f = Format.fprintf ppf "n%d/sa%d" f.node (if f.stuck then 1 else 0)

let universe circuit =
  let acc = ref [] in
  for node = Netlist.node_count circuit - 1 downto 0 do
    match Netlist.kind circuit node with
    | Netlist.Const0 | Netlist.Const1 -> ()
    | Netlist.Input | Netlist.And2 | Netlist.Or2 | Netlist.Nand2 | Netlist.Nor2
    | Netlist.Xor2 | Netlist.Xnor2 | Netlist.Not | Netlist.Buf | Netlist.Dff ->
      acc := { node; stuck = false } :: { node; stuck = true } :: !acc
  done;
  Array.of_list !acc

(* Walk a fault backwards through single-input gates while the driver feeds
   only this gate; NOT flips the stuck polarity. *)
let rec representative circuit f =
  match Netlist.kind circuit f.node with
  | Netlist.Buf | Netlist.Not | Netlist.Dff ->
    let driver = (Netlist.fanin circuit f.node).(0) in
    let driver_is_const =
      match Netlist.kind circuit driver with
      | Netlist.Const0 | Netlist.Const1 -> true
      | Netlist.Input | Netlist.And2 | Netlist.Or2 | Netlist.Nand2 | Netlist.Nor2
      | Netlist.Xor2 | Netlist.Xnor2 | Netlist.Not | Netlist.Buf | Netlist.Dff -> false
    in
    if driver_is_const || Netlist.fanout_count circuit driver <> 1 then f
    else begin
      let stuck =
        match Netlist.kind circuit f.node with Netlist.Not -> not f.stuck | _ -> f.stuck
      in
      representative circuit { node = driver; stuck }
    end
  | Netlist.Input | Netlist.Const0 | Netlist.Const1 | Netlist.And2 | Netlist.Or2
  | Netlist.Nand2 | Netlist.Nor2 | Netlist.Xor2 | Netlist.Xnor2 -> f

let collapse circuit faults =
  let seen = Hashtbl.create (Array.length faults) in
  let keep = ref [] in
  Array.iter
    (fun f ->
      let r = representative circuit f in
      let key = (r.node, r.stuck) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        keep := r :: !keep
      end)
    faults;
  Array.of_list (List.rev !keep)

(* Union-find over (node, polarity) keys [2 node + stuck], each class
   rooted at its smallest key; [find] halves the path as it walks. *)
let rec find parent k =
  let p = parent.(k) in
  if p = k then k
  else begin
    let gp = parent.(p) in
    parent.(k) <- gp;
    if gp = p then p else find parent gp
  end

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra < rb then parent.(rb) <- ra else if rb < ra then parent.(ra) <- rb

let key node stuck = (2 * node) + if stuck then 1 else 0

let classes circuit ~output faults =
  let n = Netlist.node_count circuit in
  let parent = Array.init (2 * n) Fun.id in
  let on_bus = Array.make n false in
  Array.iter (fun x -> on_bus.(x) <- true) output;
  let private_ d =
    Netlist.fanout_count circuit d = 1
    && (not on_bus.(d))
    &&
    match Netlist.kind circuit d with
    | Netlist.Const0 | Netlist.Const1 -> false
    | Netlist.Input | Netlist.And2 | Netlist.Or2 | Netlist.Nand2 | Netlist.Nor2
    | Netlist.Xor2 | Netlist.Xnor2 | Netlist.Not | Netlist.Buf | Netlist.Dff -> true
  in
  (* a private fanin stuck at the gate's controlling value [c] is the
     output stuck at [out]; a gate that reads one node on both inputs
     gives it two fanout edges, so that node is not private *)
  let gate g ~c ~out =
    let a = Netlist.fanin0 circuit g and b = Netlist.fanin1 circuit g in
    if private_ a then union parent (key a c) (key g out);
    if private_ b then union parent (key b c) (key g out)
  in
  for g = 0 to n - 1 do
    match Netlist.kind circuit g with
    | Netlist.And2 -> gate g ~c:false ~out:false
    | Netlist.Nand2 -> gate g ~c:false ~out:true
    | Netlist.Or2 -> gate g ~c:true ~out:true
    | Netlist.Nor2 -> gate g ~c:true ~out:false
    | Netlist.Buf | Netlist.Not | Netlist.Dff ->
      let d = Netlist.fanin0 circuit g in
      if private_ d then begin
        let flip = Netlist.kind circuit g = Netlist.Not in
        union parent (key d false) (key g flip);
        if Netlist.kind circuit g <> Netlist.Dff then
          union parent (key d true) (key g (not flip))
      end
    | Netlist.Input | Netlist.Const0 | Netlist.Const1 | Netlist.Xor2 | Netlist.Xnor2 -> ()
  done;
  (* each class root's first fault *)
  let first = Array.make (2 * n) (-1) in
  Array.mapi
    (fun i f ->
      let r = find parent (key f.node f.stuck) in
      if first.(r) < 0 then first.(r) <- i;
      first.(r))
    faults

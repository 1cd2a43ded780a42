type t = { node : Netlist.node; stuck : bool }

let equal a b = a.node = b.node && Bool.equal a.stuck b.stuck

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

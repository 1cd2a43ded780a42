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

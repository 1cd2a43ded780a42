let kind_keyword = function
  | Netlist.Input -> "INPUT"
  | Netlist.Const0 -> "CONST0"
  | Netlist.Const1 -> "CONST1"
  | Netlist.And2 -> "AND"
  | Netlist.Or2 -> "OR"
  | Netlist.Nand2 -> "NAND"
  | Netlist.Nor2 -> "NOR"
  | Netlist.Xor2 -> "XOR"
  | Netlist.Xnor2 -> "XNOR"
  | Netlist.Not -> "NOT"
  | Netlist.Buf -> "BUF"
  | Netlist.Dff -> "DFF"

let to_string t =
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer "# msoc netlist v1\n";
  Array.iter
    (fun (name, node) -> Buffer.add_string buffer (Printf.sprintf "INPUT(%s n%d)\n" name node))
    (Netlist.inputs t);
  for node = 0 to Netlist.node_count t - 1 do
    match Netlist.kind t node with
    | Netlist.Input -> () (* already declared *)
    | Netlist.Const0 | Netlist.Const1 ->
      Buffer.add_string buffer
        (Printf.sprintf "n%d = %s\n" node (kind_keyword (Netlist.kind t node)))
    | (Netlist.And2 | Netlist.Or2 | Netlist.Nand2 | Netlist.Nor2 | Netlist.Xor2
      | Netlist.Xnor2 | Netlist.Not | Netlist.Buf | Netlist.Dff) as kind ->
      let fanin = Netlist.fanin t node in
      let args =
        String.concat ", " (Array.to_list (Array.map (Printf.sprintf "n%d") fanin))
      in
      Buffer.add_string buffer (Printf.sprintf "n%d = %s(%s)\n" node (kind_keyword kind) args)
  done;
  Array.iter
    (fun (name, bus) ->
      let ids = String.concat " " (Array.to_list (Array.map string_of_int bus)) in
      Buffer.add_string buffer (Printf.sprintf "OUTPUT(%s %s)\n" name ids))
    (Netlist.outputs t);
  Buffer.contents buffer

let parse_error line_number message =
  failwith (Printf.sprintf "Netlist_io: line %d: %s" line_number message)

let kind_of_keyword line_number = function
  | "AND" -> Netlist.And2
  | "OR" -> Netlist.Or2
  | "NAND" -> Netlist.Nand2
  | "NOR" -> Netlist.Nor2
  | "XOR" -> Netlist.Xor2
  | "XNOR" -> Netlist.Xnor2
  | "NOT" -> Netlist.Not
  | "BUF" -> Netlist.Buf
  | "DFF" -> Netlist.Dff
  | keyword -> parse_error line_number (Printf.sprintf "unknown gate %S" keyword)

let node_id line_number token =
  let token = String.trim token in
  if String.length token < 2 || token.[0] <> 'n' then
    parse_error line_number (Printf.sprintf "expected node reference, got %S" token)
  else begin
    match int_of_string_opt (String.sub token 1 (String.length token - 1)) with
    | Some id -> id
    | None -> parse_error line_number (Printf.sprintf "bad node reference %S" token)
  end

(* The builder assigns dense ids in creation order; the format stores nodes
   in id order, so re-creating them in file order reproduces the ids.  A
   translation table guards against files with gaps anyway. *)
let of_string text =
  let b = Netlist.Builder.create () in
  let table = Hashtbl.create 256 in
  let resolve line_number id =
    match Hashtbl.find_opt table id with
    | Some node -> node
    | None -> parse_error line_number (Printf.sprintf "node n%d used before definition" id)
  in
  let outputs = ref [] in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun index raw ->
      let line_number = index + 1 in
      let line = String.trim raw in
      if String.length line = 0 || line.[0] = '#' then ()
      else if String.length line > 6 && String.sub line 0 6 = "INPUT(" then begin
        let inner = String.sub line 6 (String.length line - 7) in
        match String.split_on_char ' ' (String.trim inner) with
        | [ name; node ] ->
          let declared = node_id line_number node in
          let created = Netlist.Builder.input b name in
          Hashtbl.replace table declared created
        | _ -> parse_error line_number "INPUT expects: INPUT(name n<id>)"
      end
      else if String.length line > 7 && String.sub line 0 7 = "OUTPUT(" then begin
        let inner = String.sub line 7 (String.length line - 8) in
        match String.split_on_char ' ' (String.trim inner) with
        | name :: ids when ids <> [] ->
          let bus =
            Array.of_list
              (List.map
                 (fun token ->
                   match int_of_string_opt (String.trim token) with
                   | Some id -> id
                   | None -> parse_error line_number (Printf.sprintf "bad output id %S" token))
                 ids)
          in
          outputs := (name, bus) :: !outputs
        | _ -> parse_error line_number "OUTPUT expects: OUTPUT(name id...)"
      end
      else begin
        match String.index_opt line '=' with
        | None -> parse_error line_number "expected a definition"
        | Some eq ->
          let lhs = node_id line_number (String.sub line 0 eq) in
          let rhs = String.trim (String.sub line (eq + 1) (String.length line - eq - 1)) in
          let created =
            if String.equal rhs "CONST0" then Netlist.Builder.const b false
            else if String.equal rhs "CONST1" then Netlist.Builder.const b true
            else begin
              match String.index_opt rhs '(' with
              | None -> parse_error line_number "expected gate(args)"
              | Some paren ->
                if rhs.[String.length rhs - 1] <> ')' then
                  parse_error line_number "missing closing parenthesis";
                let keyword = String.sub rhs 0 paren in
                let inner = String.sub rhs (paren + 1) (String.length rhs - paren - 2) in
                let args =
                  List.map (fun tok -> resolve line_number (node_id line_number tok))
                    (String.split_on_char ',' inner)
                in
                let kind = kind_of_keyword line_number keyword in
                (match (kind, args) with
                | Netlist.Not, [ a ] -> Netlist.Builder.not_ b a
                | Netlist.Buf, [ a ] -> Netlist.Builder.buf b a
                | Netlist.Dff, [ d ] -> Netlist.Builder.dff b d
                | (Netlist.And2 | Netlist.Or2 | Netlist.Nand2 | Netlist.Nor2
                  | Netlist.Xor2 | Netlist.Xnor2), [ a; c ] ->
                  Netlist.Builder.gate2 b kind a c
                | _ -> parse_error line_number "wrong arity")
            end
          in
          Hashtbl.replace table lhs created
      end)
    lines;
  List.iter
    (fun (name, declared_bus) ->
      let bus = Array.map (fun id -> resolve 0 id) declared_bus in
      Netlist.Builder.output b name bus)
    (List.rev !outputs);
  Netlist.freeze b

let save file t =
  Out_channel.with_open_text file (fun channel -> output_string channel (to_string t))

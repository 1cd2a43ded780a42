(* Minimal JSON for the telemetry exporters and the bench-report schema.
   The repo deliberately has no JSON dependency: emission is buffer
   combinators, parsing is a small recursive-descent reader used by the
   report round-trip (bench-diff) and by the test suite to validate every
   exporter structurally. *)

let escape_to buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

let int_to buffer v = Buffer.add_string buffer (string_of_int v)
let int64_to buffer v = Buffer.add_string buffer (Int64.to_string v)

(* ["k1":v1,"k2":v2] object from an emit list; values are emitted by the
   provided closures so callers mix strings and numbers freely. *)
let obj_to buffer fields =
  Buffer.add_char buffer '{';
  List.iteri
    (fun i (key, emit) ->
      if i > 0 then Buffer.add_char buffer ',';
      escape_to buffer key;
      Buffer.add_char buffer ':';
      emit buffer)
    fields;
  Buffer.add_char buffer '}'

(* %.17g round-trips every finite double exactly; the bench-report schema
   and the telemetry trace use it so that emit -> parse -> emit is the
   identity on numbers.  JSON has no inf/nan literal: those become null. *)
let float_exact_to buffer v =
  if Float.is_finite v then Buffer.add_string buffer (Printf.sprintf "%.17g" v)
  else Buffer.add_string buffer "null"

let str s buffer = escape_to buffer s
let num_exact v buffer = float_exact_to buffer v
let int v buffer = int_to buffer v
let int64 v buffer = int64_to buffer v
let bool v buffer = Buffer.add_string buffer (if v then "true" else "false")

let args_obj args buffer =
  obj_to buffer (List.map (fun (k, v) -> (k, str v)) args)

let arr_to buffer emits =
  Buffer.add_char buffer '[';
  List.iteri
    (fun i emit ->
      if i > 0 then Buffer.add_char buffer ',';
      emit buffer)
    emits;
  Buffer.add_char buffer ']'

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list

exception Parse_error of string

let utf8_of_code_point b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse (s : string) : value =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then fail "unexpected end of input";
    let c = s.[!pos] in
    incr pos;
    c
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    let got = next () in
    if got <> c then fail (Printf.sprintf "expected %C, got %C" c got)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
        (match next () with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          let hex = String.init 4 (fun _ -> next ()) in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some cp -> utf8_of_code_point b cp
          | None -> fail (Printf.sprintf "bad \\u escape %S" hex))
        | c -> fail (Printf.sprintf "bad escape \\%C" c));
        go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let numchar = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when numchar c -> true | _ -> false) do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then (incr pos; Object [])
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> members ((key, v) :: acc)
          | '}' -> Object (List.rev ((key, v) :: acc))
          | c -> fail (Printf.sprintf "bad object separator %C" c)
        in
        members []
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then (incr pos; Array [])
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> elements (v :: acc)
          | ']' -> Array (List.rev (v :: acc))
          | c -> fail (Printf.sprintf "bad array separator %C" c)
        in
        elements []
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Number (parse_number ())
    | None -> fail "empty input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let parse_result s =
  match parse s with v -> Ok v | exception Parse_error msg -> Error msg

(* ---- accessors (total, for consumers that validate as they walk) ---- *)

let member key = function
  | Object fields -> List.assoc_opt key fields
  | _ -> None

let to_string = function String s -> Some s | _ -> None
let to_number = function Number v -> Some v | _ -> None
let to_list = function Array l -> Some l | _ -> None

let string_exn key j =
  match member key j with
  | Some (String s) -> s
  | _ -> raise (Parse_error (Printf.sprintf "missing string field %S" key))

let number_exn key j =
  match member key j with
  | Some (Number v) -> v
  | _ -> raise (Parse_error (Printf.sprintf "missing numeric field %S" key))

let int_exn key j = int_of_float (number_exn key j)

let bool_exn key j =
  match member key j with
  | Some (Bool b) -> b
  | _ -> raise (Parse_error (Printf.sprintf "missing boolean field %S" key))

let list_exn key j =
  match member key j with
  | Some (Array l) -> l
  | _ -> raise (Parse_error (Printf.sprintf "missing array field %S" key))

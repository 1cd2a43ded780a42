module B = Netlist.Builder

type bus = Netlist.node array

let const_bus b ~width value =
  (* a bus as wide as a native int holds every native int *)
  let fits =
    width >= Sys.int_size
    || if value >= 0 then value < 1 lsl (width - 1) else -value <= 1 lsl (width - 1)
  in
  if not fits then invalid_arg "Arith.const_bus: value does not fit";
  Array.init width (fun i -> B.const b ((value lsr i) land 1 = 1))

let sign_extend b bus ~width =
  let w = Array.length bus in
  assert (width >= w);
  if width = w then bus
  else begin
    let sign = bus.(w - 1) in
    Array.init width (fun i -> if i < w then bus.(i) else B.buf b sign)
  end

let full_adder b x y cin =
  let x_xor_y = B.gate2 b Netlist.Xor2 x y in
  let sum = B.gate2 b Netlist.Xor2 x_xor_y cin in
  let carry_xy = B.gate2 b Netlist.And2 x y in
  let carry_cin = B.gate2 b Netlist.And2 x_xor_y cin in
  let carry = B.gate2 b Netlist.Or2 carry_xy carry_cin in
  (sum, carry)

let ripple_add b x y ~cin =
  let w = Array.length x in
  assert (Array.length y = w);
  let sum = Array.make w 0 in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let s, c = full_adder b x.(i) y.(i) !carry in
    sum.(i) <- s;
    carry := c
  done;
  sum

let add_signed b x y ~width =
  let xe = sign_extend b x ~width and ye = sign_extend b y ~width in
  ripple_add b xe ye ~cin:(B.const b false)

let sub_signed b x y ~width =
  let xe = sign_extend b x ~width and ye = sign_extend b y ~width in
  let ny = Array.map (fun n -> B.not_ b n) ye in
  ripple_add b xe ny ~cin:(B.const b true)

let negate b x ~width =
  let zero = const_bus b ~width 0 in
  sub_signed b zero (sign_extend b x ~width) ~width

let shift_left b bus ~by =
  assert (by >= 0);
  if by = 0 then bus
  else begin
    let zero = B.const b false in
    Array.init (Array.length bus + by) (fun i -> if i < by then zero else bus.(i - by))
  end

(* Canonical signed digits: scan LSB to MSB; an odd remainder becomes +1 or
   -1 chosen so the remainder stays divisible by 4, which forbids adjacent
   nonzero digits. *)
let csd_digits value =
  let rec loop c weight acc =
    if c = 0 then List.rev acc
    else if c land 1 = 0 then loop (c asr 1) (weight + 1) acc
    else begin
      let digit = 2 - (c land 3) in
      (* digit = +1 when c mod 4 = 1, -1 when c mod 4 = 3 *)
      loop ((c - digit) asr 1) (weight + 1) ((weight, digit) :: acc)
    end
  in
  loop value 0 []

let width_for_product ~input_width ~coeff =
  if coeff = 0 then 1
  else begin
    (* Largest magnitude of coeff * x for x in [-2^(w-1), 2^(w-1) - 1]. *)
    let max_mag = abs coeff * (1 lsl (input_width - 1)) in
    let rec bits_needed v acc = if v = 0 then acc else bits_needed (v lsr 1) (acc + 1) in
    bits_needed max_mag 0 + 1
  end

let scale_const b bus ~coeff ~width =
  if coeff = 0 then const_bus b ~width 0
  else begin
    let terms = csd_digits coeff in
    let shifted weight = sign_extend b (shift_left b bus ~by:weight) ~width in
    match terms with
    | [] -> const_bus b ~width 0
    | (w0, d0) :: rest ->
      let first =
        if d0 = 1 then shifted w0 else negate b (shift_left b bus ~by:w0) ~width
      in
      List.fold_left
        (fun acc (w, d) ->
          if d = 1 then add_signed b acc (shifted w) ~width
          else sub_signed b acc (shifted w) ~width)
        first rest
  end

let register_bus b bus = Array.map (fun n -> B.dff b n) bus

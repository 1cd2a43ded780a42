(* xoshiro256** over a [floatarray] of the four state words' bit patterns.
   A record of [mutable s0..s3 : int64] fields boxes a fresh Int64 on every
   field store — six heap allocations per [bits64] draw — which is pure GC
   load in Monte-Carlo / noise-injection inner loops and collapses pooled
   throughput (OCaml 5 minor collections stop every domain).  A floatarray
   stores the same 64 bits flat: [Int64.float_of_bits]/[bits_of_float] are
   bit-pattern moves (no rounding, NaN payloads preserved), and float
   stores into a floatarray do not allocate.  The algorithm and its output
   are bit-for-bit unchanged. *)

type t = floatarray

let get g i = Int64.bits_of_float (Float.Array.unsafe_get g i)
let set g i v = Float.Array.unsafe_set g i (Int64.float_of_bits v)

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Expand a 64-bit seed into the four state words through splitmix64 —
   shared by [create], [split] and [reseed] so every path that names a
   stream by one raw draw produces the identical stream. *)
let expand g bits =
  let state = ref bits in
  set g 0 (splitmix64 state);
  set g 1 (splitmix64 state);
  set g 2 (splitmix64 state);
  set g 3 (splitmix64 state)

let create seed =
  let g = Float.Array.create 4 in
  expand g (Int64.of_int seed);
  g

let copy g = Float.Array.copy g

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* [bits64], [float] and [standard] are [@inline] so that [fill_gaussian]'s
   loop keeps its int64 and float intermediates unboxed. *)
let[@inline] bits64 g =
  let open Int64 in
  let s0 = get g 0 and s1 = get g 1 and s2 = get g 2 and s3 = get g 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 t in
  let s3 = rotl s3 45 in
  set g 0 s0;
  set g 1 s1;
  set g 2 s2;
  set g 3 s3;
  result

let split_seed g = bits64 g

let reseed g bits = expand g bits

let of_seed_bits bits =
  let g = Float.Array.create 4 in
  expand g bits;
  g

let split g = of_seed_bits (bits64 g)

(* 53 high bits scaled into [0,1). *)
let[@inline] float g =
  let bits = Int64.shift_right_logical (bits64 g) 11 in
  Int64.to_float bits *. 0x1.0p-53

let uniform g ~lo ~hi = lo +. ((hi -. lo) *. float g)

(* Unbiased bounded draw by power-of-two masking with rejection: draw the
   smallest number of bits that can represent [n - 1] and retry until the
   value lands below [n].  The old [bits mod n] mapped a 62-bit draw onto
   [0, n) unevenly (low residues were over-represented by one part in
   [2^62 / n]).  Expected retries < 1 per draw for every [n].  The mask
   is [n - 1] with its bits smeared right, so a power-of-two [n] keeps
   [n - 1] and takes exactly one draw; an [int] mask and a [while] loop
   keep the draw allocation-free. *)
let int g n =
  assert (n > 0);
  let m = n - 1 in
  let m = m lor (m lsr 1) in
  let m = m lor (m lsr 2) in
  let m = m lor (m lsr 4) in
  let m = m lor (m lsr 8) in
  let m = m lor (m lsr 16) in
  let mask = m lor (m lsr 32) in
  let v = ref (Int64.to_int (bits64 g) land mask) in
  while !v >= n do
    v := Int64.to_int (bits64 g) land mask
  done;
  !v

(* Box–Muller; reject a zero radius so that [log] stays finite.  The one
   definition behind [gaussian] and [fill_gaussian]. *)
let[@inline] standard g =
  let u1 = ref (float g) in
  while not (!u1 > 0.0) do
    u1 := float g
  done;
  let u2 = float g in
  sqrt (-2.0 *. log !u1) *. cos (Units.two_pi *. u2)

let gaussian g = standard g

let fill_gaussian g ~scale out =
  for i = 0 to Array.length out - 1 do
    Array.unsafe_set out i (scale *. standard g)
  done

let gaussian_scaled g ~mean ~sigma = mean +. (sigma *. gaussian g)

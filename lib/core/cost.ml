(* Application cost of one synthesized test procedure, as a pure function
   of its stimulus shape: how many ATE clock cycles the tester spends
   applying it.  Burying this inside the virtual tester made SOC-level
   scheduling impossible — the scheduler needs cycles per test without
   running a single waveform. *)

type t = {
  captures : int;
  record_samples : int;
  settle_cycles : int;
  setup_cycles : int;
  sample_rate_hz : float;
}

(* One instrument connect/range/trigger setup per procedure, amortized
   over its captures.  64 cycles is the conventional ATE fixture figure;
   callers with wrapped cores add their own wrapper-load cost on top. *)
let setup_cycles = 64

let create ~captures ~record_samples ~settle_cycles ~sample_rate_hz =
  if captures < 1 then invalid_arg "Cost.create: captures must be >= 1";
  if record_samples < 1 then invalid_arg "Cost.create: record_samples must be >= 1";
  if settle_cycles < 0 then invalid_arg "Cost.create: settle_cycles must be >= 0";
  if not (sample_rate_hz > 0.0) then invalid_arg "Cost.create: sample_rate_hz must be > 0";
  { captures; record_samples; settle_cycles; setup_cycles; sample_rate_hz }

let ate_cycles c = c.setup_cycles + (c.captures * (c.settle_cycles + c.record_samples))
let seconds c = float_of_int (ate_cycles c) /. c.sample_rate_hz

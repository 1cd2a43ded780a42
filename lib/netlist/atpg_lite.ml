module Prng = Msoc_util.Prng

type config = {
  patterns : int;
  seed : int;
}

let default_config = { patterns = 1024; seed = 7 }

type result = {
  total : int;
  detected : int;
  coverage : float;
  detected_flags : bool array;
  last_useful_pattern : int;
}

(* Pre-generate the random stimulus as per-input bit arrays, so the drive
   the fault simulation calls once per cycle is a table lookup.

   Prefix stability: the generator is consumed in pattern-major/
   input-minor order ([Array.init] applies its function in index order),
   so the table for [patterns = p] is exactly the first [p] rows of the
   table for any larger pattern count with the same seed, and a grading's
   detections at [p] patterns are a subset of those at any longer sweep. *)
let stimulus_table circuit config =
  let inputs = Netlist.inputs circuit in
  let g = Prng.create config.seed in
  Array.init config.patterns (fun _ ->
      Array.init (Array.length inputs) (fun i -> (snd inputs.(i), Prng.float g < 0.5)))

let grade ?pool circuit ~output ~faults config =
  assert (config.patterns > 0);
  let table = stimulus_table circuit config in
  let drive sim cycle =
    Array.iter
      (fun (node, bit) -> Logic_sim.drive_node sim node (if bit then -1 else 0))
      table.(cycle)
  in
  let cycles =
    Fault_sim.detect_cycles ?pool circuit ~output ~drive ~samples:config.patterns ~faults
  in
  let flags = Array.map (fun c -> c >= 0) cycles in
  let detected = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 flags in
  { total = Array.length faults;
    detected;
    coverage = float_of_int detected /. float_of_int (max 1 (Array.length faults));
    detected_flags = flags;
    last_useful_pattern = 1 + Array.fold_left max (-1) cycles }

module Prng = Msoc_util.Prng

type config = {
  patterns : int;
  seed : int;
  weights : float array option;
}

let default_config = { patterns = 1024; seed = 7; weights = None }

type result = {
  total : int;
  detected : int;
  coverage : float;
  detected_flags : bool array;
  patterns_used : int;
  last_useful_pattern : int;
}

(* Pre-generate the random stimulus as per-input bit arrays, so the drive
   the fault simulation calls once per cycle is a table lookup.

   Prefix stability: the generator is consumed in explicit
   pattern-major/input-minor order, so the table for [patterns = p] is
   exactly the first [p] rows of the table for any larger pattern count
   with the same seed.  [grade_until] relies on this to resume a doubled
   grading with only the undetected remainder. *)
let stimulus_table circuit config =
  let inputs = Netlist.inputs circuit in
  let ninputs = Array.length inputs in
  let g = Prng.create config.seed in
  (match config.weights with
  | Some w ->
    if Array.length w <> ninputs then
      invalid_arg "Atpg_lite: weights length must match the input count"
  | None -> ());
  let table = Array.make config.patterns [||] in
  for p = 0 to config.patterns - 1 do
    let row = Array.make ninputs (0, false) in
    for i = 0 to ninputs - 1 do
      let _, node = inputs.(i) in
      let prob = match config.weights with Some w -> w.(i) | None -> 0.5 in
      row.(i) <- (node, Prng.float g < prob)
    done;
    table.(p) <- row
  done;
  table

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
    patterns_used = config.patterns;
    last_useful_pattern = 1 + Array.fold_left max (-1) cycles }

let grade_until ?pool circuit ~output ~faults config ~target_coverage ~max_patterns =
  let nf = Array.length faults in
  let flags = Array.make nf false in
  let last_useful = ref 0 in
  let summarize patterns =
    let detected = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 flags in
    { total = nf;
      detected;
      coverage = float_of_int detected /. float_of_int (max 1 nf);
      detected_flags = flags;
      patterns_used = patterns;
      last_useful_pattern = !last_useful }
  in
  let rec attempt patterns =
    (* The stimulus table is prefix-stable (same seed, longer sweep =
       superset of patterns), so flags earned at a smaller pattern count
       stay valid: each doubling only re-grades the undetected remainder
       and ORs the new detections in. *)
    let remaining =
      let acc = ref [] in
      for i = nf - 1 downto 0 do
        if not flags.(i) then acc := i :: !acc
      done;
      Array.of_list !acc
    in
    if Array.length remaining > 0 then begin
      let sub = Array.map (fun i -> faults.(i)) remaining in
      let r = grade ?pool circuit ~output ~faults:sub { config with patterns } in
      Array.iteri (fun k fi -> if r.detected_flags.(k) then flags.(fi) <- true) remaining;
      last_useful := max !last_useful r.last_useful_pattern
    end;
    let result = summarize patterns in
    if result.coverage >= target_coverage || patterns >= max_patterns then result
    else attempt (min max_patterns (patterns * 2))
  in
  attempt config.patterns

let union_coverage gradings =
  match gradings with
  | [] -> 0
  | first :: rest ->
    let n = Array.length first in
    List.iteri
      (fun i flags ->
        if Array.length flags <> n then
          invalid_arg
            (Printf.sprintf
               "Atpg_lite.union_coverage: grading %d has %d flags, expected %d (all \
                gradings must come from the same fault array)"
               (i + 1) (Array.length flags) n))
      rest;
    let count = ref 0 in
    for i = 0 to n - 1 do
      if List.exists (fun flags -> flags.(i)) gradings then incr count
    done;
    !count

module Fir_netlist = Msoc_netlist.Fir_netlist
module Fault = Msoc_netlist.Fault
module Fault_sim = Msoc_netlist.Fault_sim
module Spectrum = Msoc_dsp.Spectrum
module Window = Msoc_dsp.Window
module Prng = Msoc_util.Prng

type signature = float array

let bands = 32

type entry = {
  fault : Fault.t;
  site : (int * Fir_netlist.role) option;
  signature : signature;
}

type t = {
  fir : Fir_netlist.t;
  sample_rate : float;
  golden_stream : int array;
  dictionary : entry array;
}

(* Deviation stream -> band-energy signature, peak-normalised in dB so the
   shape (not the fault's strength) is what matches. *)
let signature_of_deviation ~sample_rate deviation =
  if Array.for_all (fun d -> d = 0.0) deviation then Array.make bands 0.0
  else begin
    let spectrum = Spectrum.analyze ~window:Window.Hann ~sample_rate deviation in
    let nbins = Spectrum.bin_count spectrum in
    let energies = Array.make bands 0.0 in
    for k = 1 to nbins - 1 do
      let band = min (bands - 1) ((k - 1) * bands / (nbins - 1)) in
      energies.(band) <- energies.(band) +. spectrum.Spectrum.bins.(k)
    done;
    let db = Array.map (fun e -> if e <= 1e-30 then -300.0 else 10.0 *. Float.log10 e) energies in
    let peak = Array.fold_left Float.max neg_infinity db in
    Array.map (fun v -> Float.max (v -. peak) (-60.0)) db
  end

let is_zero signature = Array.for_all (fun v -> v = 0.0) signature

let deviation_of_stream fir golden stream =
  Array.init (Array.length golden) (fun i ->
      float_of_int (stream.(i) - golden.(i)) *. fir.Fir_netlist.scale)

let build fir ~sample_rate ~input_codes ~faults =
  let golden_stream = Fir_netlist.response fir input_codes in
  let drive sim cycle = Fir_netlist.drive fir sim input_codes.(cycle) in
  let _, dictionary =
    Fault_sim.observe fir.Fir_netlist.circuit ~output:Fir_netlist.output_bus_name ~drive
      ~samples:(Array.length input_codes) ~faults
      ~on_fault:(fun _ fault stream ->
        let deviation = deviation_of_stream fir golden_stream stream in
        let site =
          match Fir_netlist.region_of_node fir fault.Fault.node with
          | Some r -> Some (r.Fir_netlist.tap, r.Fir_netlist.role)
          | None -> None
        in
        { fault; site; signature = signature_of_deviation ~sample_rate deviation })
  in
  { fir; sample_rate; golden_stream; dictionary }

let entries t = t.dictionary

let signature_of_stream t stream =
  signature_of_deviation ~sample_rate:t.sample_rate
    (deviation_of_stream t.fir t.golden_stream stream)

let distance a b =
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = x -. b.(i) in
      acc := !acc +. (d *. d))
    a;
  sqrt !acc

let diagnose t signature =
  let candidates =
    Array.to_list t.dictionary
    |> List.filter (fun e -> not (is_zero e.signature))
    |> List.map (fun e -> (distance signature e.signature, e))
  in
  List.sort (fun (a, _) (b, _) -> compare a b) candidates
  |> List.filteri (fun i _ -> i < 10)
  |> List.map snd

type accuracy = {
  diagnosable : int;
  site_match_rate : float;
  tap_match_rate : float;
}

let clustering_accuracy t ~sample ~seed =
  let diagnosable =
    Array.to_list t.dictionary |> List.filter (fun e -> not (is_zero e.signature))
  in
  let pool = Array.of_list diagnosable in
  let n = Array.length pool in
  let g = Prng.create seed in
  let count = min sample n in
  let site_hits = ref 0 and tap_hits = ref 0 in
  for _ = 1 to count do
    let probe = pool.(Prng.int g n) in
    (* nearest OTHER entry *)
    let best = ref None in
    Array.iter
      (fun e ->
        if not (Fault.equal e.fault probe.fault) then begin
          let d = distance probe.signature e.signature in
          match !best with
          | Some (d0, _) when d0 <= d -> ()
          | Some _ | None -> best := Some (d, e)
        end)
      pool;
    match (!best, probe.site) with
    | Some (_, nearest), Some (tap, role) ->
      (match nearest.site with
      | Some (tap', role') ->
        if tap = tap' then begin
          incr tap_hits;
          if role = role' then incr site_hits
        end
      | None -> ())
    | _, _ -> ()
  done;
  { diagnosable = n;
    site_match_rate = float_of_int !site_hits /. float_of_int (max 1 count);
    tap_match_rate = float_of_int !tap_hits /. float_of_int (max 1 count) }

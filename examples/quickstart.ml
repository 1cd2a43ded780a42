(* Quickstart: synthesise a system-level test plan for the paper's receiver
   path (Fig. 6) and print it.

   Run with:  dune exec examples/quickstart.exe *)

module Path = Msoc_analog.Path
open Msoc_synth

let () =
  (* 1. Describe the signal path: Amp -> Mixer(LO) -> LPF -> ADC.  The
     default receiver carries every block's nominal parameters and
     tolerances (the designer's spec). *)
  let path = Path.default_receiver () in
  Format.printf "Receiver: path gain %.1f dB nominal, ADC rate %.0f kHz@."
    (Path.nominal_path_gain_db path)
    (Path.adc_rate_hz path /. 1e3);

  (* 2. Synthesise the test plan: composed tests first (they are the
     adaptive prerequisites), then propagated per-block measurements with
     their error budgets and predicted FCL/YL, then the digital filter
     structural test. *)
  let plan = Plan.synthesize path in
  Format.printf "@.%a@." Plan.pp_summary plan;

  (* 3. Boundary checks guard the composed gains against masking
     (paper Fig. 3). *)
  Format.printf "@.Boundary checks:@.";
  List.iter
    (fun c ->
      Format.printf "  %-55s stimulus %7.1f dBm, SNR >= %.0f dB@." c.Compose.description
        c.Compose.stimulus_dbm c.Compose.min_snr_db)
    plan.Plan.boundary_checks;

  (* 4. Anything whose predicted losses are unacceptable would need DFT. *)
  let flagged = Plan.dft_required plan ~max_fcl:0.25 ~max_yl:0.25 in
  Format.printf "@.Tests needing DFT at (FCL, YL) <= 25%%: %d@." (List.length flagged);
  List.iter
    (fun m -> Format.printf "  %a@." Spec.pp m.Propagate.spec)
    flagged;

  (* 5. Schedule the test program: adaptive prerequisites first. *)
  let steps = Plan.schedule plan in
  Format.printf "@.Test program (%.0f ms tester time):@."
    (1000.0 *. Plan.total_test_time steps);
  List.iter
    (fun s ->
      Format.printf "  %2d. %-34s %2d captures%s@." s.Plan.position s.Plan.name
        s.Plan.cost.Cost.captures
        (match s.Plan.prerequisites with
        | [] -> ""
        | l -> "   (after " ^ String.concat ", " l ^ ")"))
    steps

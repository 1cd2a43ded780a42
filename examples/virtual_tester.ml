(* The virtual mixed-signal tester: execute the synthesised measurement
   procedures against a manufactured part and check every result against
   its true value and the predicted error budget.

   Run with:  dune exec examples/virtual_tester.exe *)

module Path = Msoc_analog.Path
module Prng = Msoc_util.Prng
module Texttable = Msoc_util.Texttable
open Msoc_synth

let () =
  let path = Path.default_receiver () in
  let g = Prng.create 2026 in
  let part = Path.sample_part path g in
  Format.printf
    "Sampled a manufactured part (all parameters drawn inside their tolerances)@.@.";

  List.iter
    (fun (label, strategy) ->
      Format.printf "=== %s ===@." label;
      let t =
        Texttable.create
          ~headers:[ "Parameter"; "True"; "Measured"; "Error"; "Budget"; "Verdict" ]
      in
      List.iter
        (fun v ->
          Texttable.add_row t
            [ v.Measure.parameter;
              Printf.sprintf "%.4g" v.Measure.true_value;
              Printf.sprintf "%.4g" v.Measure.measured;
              Printf.sprintf "%+.3g" v.Measure.error;
              Printf.sprintf "±%.3g" v.Measure.budget;
              (if Float.abs v.Measure.error <= v.Measure.budget then "within budget"
               else "OVER BUDGET") ])
        (Measure.validate_part path part ~strategy);
      Texttable.print t;
      Format.printf "@.")
    [ ("nominal-gain de-embedding", Propagate.Nominal_gains);
      ("adaptive de-embedding (path gain & LO measured first)", Propagate.Adaptive) ];

  (* If losses are still unacceptable, the advisor quantifies test points. *)
  Format.printf "=== DFT advisor (limits: FCL 10%%, YL 5%%) ===@.";
  let recs = Dft.recommend (Plan.synthesize path) ~max_fcl:0.10 ~max_yl:0.05 in
  if recs = [] then Format.printf "no test points needed@."
  else begin
    let t =
      Texttable.create
        ~headers:[ "Measurement"; "FCL via path"; "FCL with test point"; "YL via path"; "YL with test point" ]
    in
    List.iter
      (fun r ->
        Texttable.add_row t
          [ Spec.block_name r.Dft.measurement.Propagate.spec.Spec.block ^ " "
            ^ Spec.kind_name r.Dft.measurement.Propagate.spec.Spec.kind;
            Texttable.cell_pct r.Dft.losses_without.Coverage.fcl;
            Texttable.cell_pct r.Dft.losses_with.Coverage.fcl;
            Texttable.cell_pct r.Dft.losses_without.Coverage.yl;
            Texttable.cell_pct r.Dft.losses_with.Coverage.yl ])
      recs;
    Texttable.print t
  end

(* Translation of module tests to the system level, in detail: the
   composed parameters, both de-embedding strategies for every propagated
   parameter, and the paper's Fig.-4 adaptive-accuracy improvement.

   Run with:  dune exec examples/receiver_test_plan.exe *)

module Path = Msoc_analog.Path
module Texttable = Msoc_util.Texttable
open Msoc_synth

let () =
  let path = Path.default_receiver () in

  (* Table 1: which parameter of which block needs testing. *)
  Format.printf "=== Parameters to test (paper Table 1) ===@.";
  let t1 = Texttable.create ~headers:[ "Block"; "Parameters" ] in
  List.iter
    (fun (block, kinds) -> Texttable.add_row t1 [ block; String.concat ", " kinds ])
    Plan.table1;
  Texttable.print t1;

  (* Composed tests. *)
  Format.printf "=== Translation by composition ===@.";
  let tc =
    Texttable.create ~headers:[ "Composite"; "Nominal"; "Tolerance"; "Meas. accuracy" ]
  in
  List.iter
    (fun (c : Compose.t) ->
      Texttable.add_row tc
        [ c.Compose.name;
          Printf.sprintf "%.2f %s" c.Compose.nominal c.Compose.unit_label;
          Printf.sprintf "±%.2f" c.Compose.tolerance;
          Printf.sprintf "±%.2f" (Accuracy.worst_case c.Compose.accuracy) ])
    [ Compose.path_gain path; Compose.noise_figure path; Compose.dynamic_range path ];
  Texttable.print tc;

  (* Saturation headroom at the standard level and near the ceiling. *)
  Format.printf "=== Saturation analysis (Fig. 3 boundary conditions) ===@.";
  List.iter
    (fun level ->
      Format.printf "input %.0f dBm:@." level;
      List.iter
        (fun r ->
          Format.printf "  %-6s drive %7.1f dBm  limit %7.1f dBm  headroom %+6.1f dB%s@."
            r.Compose.block r.Compose.drive_dbm r.Compose.limit_dbm r.Compose.headroom_db
            (if r.Compose.headroom_db < 0.0 then "  << SATURATES" else ""))
        (Compose.saturation_analysis path ~input_dbm:level))
    [ Propagate.standard_test_level_dbm; -8.0 ];

  (* Propagated measurements under both strategies. *)
  Format.printf "@.=== Translation by propagation: nominal vs adaptive (Fig. 4) ===@.";
  let tp =
    Texttable.create
      ~headers:[ "Parameter"; "Err (nominal)"; "Err (adaptive)"; "Adaptive prerequisites" ]
  in
  List.iter
    (fun (make : Path.t -> strategy:Propagate.strategy -> Propagate.t) ->
      let nominal = make path ~strategy:Propagate.Nominal_gains in
      let adaptive = make path ~strategy:Propagate.Adaptive in
      Texttable.add_row tp
        [ Spec.block_name nominal.Propagate.spec.Spec.block ^ " "
          ^ Spec.kind_name nominal.Propagate.spec.Spec.kind;
          Printf.sprintf "±%.3g" (Propagate.err nominal);
          Printf.sprintf "±%.3g" (Propagate.err adaptive);
          String.concat ", " adaptive.Propagate.prerequisites ])
    [ Propagate.mixer_iip3; Propagate.amp_iip3; Propagate.mixer_p1db; Propagate.lpf_cutoff;
      Propagate.mixer_lo_isolation ];
  Texttable.print tp;

  (* Full budget detail for the flagship example. *)
  Format.printf "@.=== Mixer IIP3 measurement in full ===@.";
  List.iter
    (fun strategy ->
      Format.printf "%a@.@." Propagate.pp (Propagate.mixer_iip3 path ~strategy))
    [ Propagate.Nominal_gains; Propagate.Adaptive ]

module Path = Msoc_analog.Path
module Param = Msoc_analog.Param
module Attr = Msoc_signal.Attr

type entry =
  | Composed of Compose.t
  | Propagated of { measurement : Propagate.t; losses : Coverage.losses }
  | Digital_filter_test of { description : string }

type t = {
  path : Path.t;
  specs : Spec.t list;
  entries : entry list;
  boundary_checks : Compose.boundary_check list;
}

let population_of_spec (spec : Spec.t) =
  Option.map
    (fun (p : Param.t) ->
      Coverage.defective_population ~nominal:p.Param.nominal ~tol:(Float.max p.Param.tol 1e-12))
    spec.Spec.source

let losses (spec : Spec.t) ~error =
  match population_of_spec spec with
  | None -> { Coverage.fcl = 0.0; yl = 0.0 }
  | Some population ->
    Coverage.analytic ~population ~bound:spec.Spec.bound ~error:(Coverage.Uniform_err error)
      ~threshold_shift:0.0

(* Capture-count heuristics per measurement kind: single-point reads take
   one capture; sweeps take one per point. *)
let captures_for_entry = function
  | Composed c ->
    (match c.Compose.name with
    | "path gain" -> 1
    | "cascade noise figure" -> 2 (* hot/cold style: signal and no-signal *)
    | "dynamic range" -> 2
    | _ -> 1)
  | Propagated { measurement; _ } ->
    (match measurement.Propagate.spec.Spec.kind with
    | Spec.P1db -> 14 (* level sweep *)
    | Spec.Cutoff_freq -> 14 (* frequency sweep with bisection *)
    | Spec.Iip3 | Spec.Lo_isolation | Spec.Freq_error | Spec.Inl | Spec.Dnl | Spec.Offset_error
    | Spec.Gain | Spec.Dc_offset | Spec.Harmonic3 | Spec.Noise_figure | Spec.Phase_noise
    | Spec.Passband_gain | Spec.Stopband_gain | Spec.Dynamic_range
    | Spec.Stuck_at_coverage -> 1)
  | Digital_filter_test _ -> 3 (* two-tone capture, golden replay, margin check *)

(* Every procedure's stimulus record length, in digitizer samples. *)
let capture_samples = 4096

let application_cost path entry =
  Cost.create ~captures:(captures_for_entry entry) ~record_samples:capture_samples
    ~settle_cycles:(Path.settle_cycles path) ~sample_rate_hz:(Path.adc_rate_hz path)

let synthesize ?(strategy = Propagate.Adaptive) path =
  Msoc_obs.Obs.span "plan.synthesize"
    ~args:[ ("strategy", Propagate.strategy_name strategy) ]
  @@ fun () ->
  let specs = Spec.of_path path in
  let composed =
    List.map
      (fun c -> Composed c)
      [ Compose.path_gain path; Compose.noise_figure path; Compose.dynamic_range path ]
  in
  let propagated =
    List.map
      (fun m ->
        Propagated
          { measurement = m; losses = losses m.Propagate.spec ~error:(Propagate.err m) })
      (Propagate.all_for_path path ~strategy)
  in
  let digital =
    [ Digital_filter_test
        { description =
            "Two-tone pass-band stimulus propagated through the analog path; \
             spectral comparison against the golden response with a \
             noise-floor-derived tolerance." } ]
  in
  { path;
    specs;
    entries = composed @ propagated @ digital;
    boundary_checks =
      Compose.boundary_checks path ~test_level_dbm:Propagate.standard_test_level_dbm }

(* ---- audit trail ---- *)

(* Compact stimulus rendering for the audit trail: what drives the primary
   input, at what level, over what noise floor. *)
let stimulus_summary (s : Attr.t) =
  match s.Attr.tones with
  | [] -> Printf.sprintf "silence, noise %.1f dBm" s.Attr.noise_dbm
  | tones ->
    let freqs =
      String.concat ", "
        (List.map
           (fun t -> Printf.sprintf "%.4g Hz" (Msoc_util.Interval.mid t.Attr.freq_hz))
           tones)
    in
    Printf.sprintf "%d tone(s) at %s, %.1f dBm total, noise %.1f dBm"
      (List.length tones) freqs (Attr.total_tone_power_dbm s) s.Attr.noise_dbm

(* The provenance record of one analog entry.  Composites are measured
   directly at the primary I/O, so their record carries the composite
   tolerance as the requirement and the instrument-grade accuracy as the
   achievement — no de-embedding chain. *)
let audit_record path entry =
  match entry with
  | Composed c ->
    Some
      { Audit.parameter = c.Compose.name;
        origin = "composed";
        strategy = "composite";
        formula =
          Printf.sprintf "%s measured directly at the primary I/O (%s)" c.Compose.name
            c.Compose.unit_label;
        stimulus = "mid-range two-tone at the primary input";
        achieved_err = Accuracy.worst_case c.Compose.accuracy;
        rss_err = Accuracy.rss c.Compose.accuracy;
        instrument_err = c.Compose.accuracy.Accuracy.instrument_err;
        contributions = [];
        prerequisites = [];
        required_tol = Some c.Compose.tolerance;
        fcl = None;
        yl = None;
        cost = application_cost path entry }
  | Propagated { measurement = m; losses } ->
    Some
      { Audit.parameter = Propagate.parameter_name m;
        origin = "propagated";
        strategy = Propagate.strategy_name m.Propagate.strategy;
        formula = m.Propagate.formula;
        stimulus = stimulus_summary m.Propagate.stimulus;
        achieved_err = Propagate.err m;
        rss_err = Accuracy.rss m.Propagate.budget;
        instrument_err = m.Propagate.budget.Accuracy.instrument_err;
        contributions = m.Propagate.budget.Accuracy.contributions;
        prerequisites = m.Propagate.prerequisites;
        required_tol = Option.map (fun p -> p.Param.tol) m.Propagate.spec.Spec.source;
        fcl = Some losses.Coverage.fcl;
        yl = Some losses.Coverage.yl;
        cost = application_cost path entry }
  | Digital_filter_test _ -> None

let audit t =
  let composed, propagated =
    List.partition
      (fun r -> String.equal r.Audit.origin "composed")
      (List.filter_map (audit_record t.path) t.entries)
  in
  (* Propagated records run in reverse plan order: the golden audit
     fixtures pin the order in which [Propagate.all_for_path] translates
     the measurements, and OCaml evaluates its list literal right to
     left. *)
  composed @ List.rev propagated

let dft_required t ~max_fcl ~max_yl =
  List.filter_map
    (function
      | Propagated { measurement; losses } ->
        if losses.Coverage.fcl > max_fcl && losses.Coverage.yl > max_yl then Some measurement
        else None
      | Composed _ | Digital_filter_test _ -> None)
    t.entries

let table1 =
  List.map
    (fun block -> (Spec.block_name block, List.map Spec.kind_name (Spec.table1 block)))
    [ Spec.Amp; Spec.Mixer; Spec.Lo; Spec.Lpf; Spec.Adc; Spec.Digital_filter ]

type step = {
  position : int;
  name : string;
  prerequisites : string list;
  cost : Cost.t;
}

let entry_name = function
  | Composed c -> c.Compose.name
  | Propagated { measurement; _ } ->
    (* lower-case to match the prerequisite strings used by Propagate *)
    let spec = measurement.Propagate.spec in
    String.lowercase_ascii spec.Spec.stage
    ^ " "
    ^ String.lowercase_ascii (Spec.kind_name spec.Spec.kind)
  | Digital_filter_test _ -> "digital filter structural test"

let entry_prerequisites = function
  | Composed _ -> []
  | Propagated { measurement; _ } ->
    List.map String.lowercase_ascii measurement.Propagate.prerequisites
  | Digital_filter_test _ -> [ "path gain" ]

let schedule t =
  let entries = Array.of_list t.entries in
  let n = Array.length entries in
  let names = Array.map entry_name entries in
  let index_of name =
    let rec scan i =
      if i >= n then None
      else if String.equal names.(i) name then Some i
      else scan (i + 1)
    in
    scan 0
  in
  let prerequisites =
    Array.map
      (fun entry ->
        List.filter_map index_of (entry_prerequisites entry))
      entries
  in
  (* Kahn, with ties broken by the original plan order (composites come
     first there already). *)
  let indegree = Array.map List.length prerequisites in
  let emitted = Array.make n false in
  let order = ref [] in
  let remaining = ref n in
  let progress = ref true in
  while !remaining > 0 && !progress do
    progress := false;
    for i = 0 to n - 1 do
      if (not emitted.(i)) && indegree.(i) = 0 then begin
        emitted.(i) <- true;
        decr remaining;
        progress := true;
        order := i :: !order;
        for j = 0 to n - 1 do
          if (not emitted.(j)) && List.mem i prerequisites.(j) then
            indegree.(j) <- indegree.(j) - 1
        done
      end
    done
  done;
  if !remaining > 0 then invalid_arg "Plan.schedule: prerequisite cycle";
  List.rev !order
  |> List.mapi (fun position i ->
         { position = position + 1;
           name = names.(i);
           prerequisites = entry_prerequisites entries.(i);
           cost = application_cost t.path entries.(i) })

let total_test_time steps =
  List.fold_left (fun acc s -> acc +. Cost.seconds s.cost) 0.0 steps

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>test plan: %d entries, %d boundary checks@,"
    (List.length t.entries) (List.length t.boundary_checks);
  List.iter
    (fun entry ->
      match entry with
      | Composed c ->
        Format.fprintf ppf "  [compose]   %-24s nominal %8.2f %-4s tol ±%.2f@," c.Compose.name
          c.Compose.nominal c.Compose.unit_label c.Compose.tolerance
      | Propagated { measurement; losses } ->
        Format.fprintf ppf "  [propagate] %-24s err ±%-6.3g FCL %5.2f%%  YL %5.2f%%@,"
          (measurement.Propagate.spec.Spec.stage ^ " "
          ^ Spec.kind_name measurement.Propagate.spec.Spec.kind)
          (Propagate.err measurement) (100.0 *. losses.Coverage.fcl)
          (100.0 *. losses.Coverage.yl)
      | Digital_filter_test { description = _ } ->
        Format.fprintf ppf "  [digital]   structural stuck-at test of the filter@,")
    t.entries;
  Format.fprintf ppf "@]"

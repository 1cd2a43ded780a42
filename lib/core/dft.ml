module Path = Msoc_analog.Path

type recommendation = {
  measurement : Propagate.t;
  losses_without : Coverage.losses;
  losses_with : Coverage.losses;
  budget_with : Accuracy.t;
  fcl_reduction : float;
  yl_reduction : float;
}

let losses_with_error path (measurement : Propagate.t) error =
  let spec = measurement.Propagate.spec in
  match Plan.population_of_spec path spec with
  | None -> { Coverage.fcl = 0.0; yl = 0.0 }
  | Some population ->
    Coverage.analytic ~population ~bound:spec.Spec.bound
      ~error:(Coverage.Uniform_err error) ~threshold_shift:0.0

let evaluate path (measurement : Propagate.t) =
  let budget_with =
    (* a test point at the block boundary removes every de-embedding term *)
    { measurement.Propagate.budget with Accuracy.contributions = [] }
  in
  let losses_without = losses_with_error path measurement (Propagate.err measurement) in
  let losses_with = losses_with_error path measurement (Accuracy.worst_case budget_with) in
  { measurement;
    losses_without;
    losses_with;
    budget_with;
    fcl_reduction = losses_without.Coverage.fcl -. losses_with.Coverage.fcl;
    yl_reduction = losses_without.Coverage.yl -. losses_with.Coverage.yl }

let recommend ?(strategy = Propagate.Adaptive) path ~max_fcl ~max_yl =
  let flagged =
    List.filter
      (fun m ->
        let losses = losses_with_error path m (Propagate.err m) in
        losses.Coverage.fcl > max_fcl && losses.Coverage.yl > max_yl)
      (Propagate.all_for_path path ~strategy)
  in
  List.sort
    (fun a b -> compare b.fcl_reduction a.fcl_reduction)
    (List.map (evaluate path) flagged)

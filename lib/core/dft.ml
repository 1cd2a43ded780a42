type recommendation = {
  measurement : Propagate.t;
  losses_without : Coverage.losses;
  losses_with : Coverage.losses;
  budget_with : Accuracy.t;
  fcl_reduction : float;
  yl_reduction : float;
}

let evaluate (measurement : Propagate.t) =
  let budget_with =
    (* a test point at the block boundary removes every de-embedding term *)
    { measurement.Propagate.budget with Accuracy.contributions = [] }
  in
  let losses error = Plan.losses measurement.Propagate.spec ~error in
  let losses_without = losses (Propagate.err measurement) in
  let losses_with = losses (Accuracy.worst_case budget_with) in
  { measurement;
    losses_without;
    losses_with;
    budget_with;
    fcl_reduction = losses_without.Coverage.fcl -. losses_with.Coverage.fcl;
    yl_reduction = losses_without.Coverage.yl -. losses_with.Coverage.yl }

let recommend plan ~max_fcl ~max_yl =
  List.sort
    (fun a b -> compare b.fcl_reduction a.fcl_reduction)
    (List.map evaluate (Plan.dft_required plan ~max_fcl ~max_yl))

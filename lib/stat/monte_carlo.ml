module Obs = Msoc_obs.Obs
module Progress = Msoc_obs.Progress

(* Heartbeat cells for the pooled trial loops: one atomic add per trial
   (a disabled add is one atomic load), never touching the samples. *)
let prog_trials = Progress.cell "monte_carlo.trials"
let prog_trials_total = Progress.cell "monte_carlo.trials_total"

(* Trial loops.  Each trial draws from its own generator stream, split
   serially from [rng] up front (Pool.split_streams), so the sample set
   depends only on [rng]'s state and the trial index — never on the pool
   size or on scheduling.  Results are therefore deterministic across pool
   sizes, the no-pool serial path included. *)

let sample_array_pooled ?pool ~trials ~rng ~f () =
  assert (trials > 0);
  Obs.count ~by:trials "monte_carlo.trials";
  Obs.span "monte_carlo.sample_array" @@ fun () ->
  Progress.set prog_trials_total (float_of_int trials);
  let f stream i =
    let v = f stream i in
    Progress.add prog_trials 1.0;
    v
  in
  match pool with
  | Some pool ->
    Msoc_util.Pool.parallel_floats_rng pool ~rng trials (fun stream i -> f stream i)
  | None ->
    (* Same streams as the pooled path, drawn through one reused scratch
       generator: a million-trial run allocates one seed table instead of
       a million generator records inside the timed region. *)
    let seeds = Msoc_util.Pool.split_seeds rng trials in
    let scratch = Msoc_util.Prng.create 0 in
    Array.init trials (fun i ->
        Msoc_util.Prng.reseed scratch (Msoc_util.Pool.seed_at seeds i);
        f scratch i)

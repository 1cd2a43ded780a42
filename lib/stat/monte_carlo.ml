module Obs = Msoc_obs.Obs
module Progress = Msoc_obs.Progress

(* Heartbeat cells for the pooled trial loops: one atomic add per trial
   (a disabled add is one atomic load), never touching the samples. *)
let prog_trials = Progress.cell "monte_carlo.trials"
let prog_trials_total = Progress.cell "monte_carlo.trials_total"

(* Trial loops.  Each trial draws from its own generator stream, split
   serially from [rng] up front into the pool's private seed table, so the
   sample set depends only on [rng]'s state and the trial index — never
   on the pool size or on scheduling. *)

let sample_array_pooled ?(pool = Msoc_util.Pool.serial) ~trials ~rng ~f () =
  assert (trials > 0);
  Obs.count ~by:trials "monte_carlo.trials";
  Obs.span "monte_carlo.sample_array" @@ fun () ->
  Progress.set prog_trials_total (float_of_int trials);
  Msoc_util.Pool.parallel_floats_rng pool ~rng trials (fun stream i ->
      let v = f stream i in
      Progress.add prog_trials 1.0;
      v)

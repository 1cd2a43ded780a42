(* Smoke run of the end-to-end bench, for `dune runtest`: every workload
   in BENCHMARK.json at three requests per client, traced.  Fails unless
   each run exits 0 with no failed request, prints every metric
   BENCHMARK.json declares under its declared unit, and leaves a trace
   file that loads.

   Usage: smoke.exe MAIN_EXE MSOC_EXE BENCHMARK_JSON *)

module Json = Msoc_obs.Json
module Trace = Msoc_obs.Trace
module Stats = Msoc_bench_e2e.Stats
module Proc = Msoc_bench_e2e.Proc

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      prerr_endline ("smoke: " ^ msg))
    fmt

let read_file file = In_channel.with_open_bin file In_channel.input_all

let metric_specs spec key =
  List.map
    (fun m -> (Json.string_exn "name" m, Json.string_exn "unit" m))
    (Json.list_exn key spec)

let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)

let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)

let check_workload ~main ~msoc ~end_to_end ~per_layer workload =
  let out, st =
    Proc.run_capture main
      [ "--workload"; workload; "--seed"; "1"; "--seconds"; "2"; "--trace"; "1";
        "--requests"; "3"; "--msoc"; msoc; "--out"; "_out" ]
  in
  if st.Proc.code <> 0 then fail "%s: exit code %d" workload st.Proc.code;
  let printed = lines out in
  (* every metric appears as a "name value unit" line *)
  List.iter
    (fun (name, unit_) ->
      let found =
        List.exists
          (fun l -> match words l with [ n; _; u ] -> n = name && u = unit_ | _ -> false)
          printed
      in
      if not found then fail "%s: no line for %s in %s" workload name unit_)
    (end_to_end @ per_layer);
  (match List.rev printed with
  | last :: _ ->
    let j = Json.parse last in
    if not (Json.bool_exn "correct" j) then fail "%s: correct is false" workload;
    if Json.int_exn "failed" j <> 0 then fail "%s: %d failed" workload (Json.int_exn "failed" j);
    if Json.int_exn "attempted" j < 1 then fail "%s: nothing attempted" workload;
    let metrics = Option.get (Json.member "metrics" j) in
    List.iter
      (fun (name, unit_) ->
        match Json.member name metrics with
        | Some m when Json.string_exn "unit" m = unit_ -> ignore (Json.number_exn "value" m)
        | _ -> fail "%s: JSON result lacks %s in %s" workload name unit_)
      per_layer
  | [] -> fail "%s: no output" workload);
  match
    List.find_map
      (fun l -> match words l with [ "trace:"; _; _; _; _; _; file ] -> Some file | _ -> None)
      printed
  with
  | None -> fail "%s: no trace file reported" workload
  | Some file ->
    (match Trace.load file with
    | Ok t when t.Trace.spans <> [] -> ()
    | Ok _ -> fail "%s: trace %s has no spans" workload file
    | Error msg -> fail "%s: trace does not load: %s" workload msg)

let () =
  match Sys.argv with
  | [| _; main; msoc; spec_file |] ->
    (* dune passes bare relative names, which exec would look up in PATH *)
    let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
    let main = absolute main and msoc = absolute msoc in
    let spec = Json.parse (read_file spec_file) in
    let end_to_end = metric_specs spec "end_to_end" in
    let per_layer = metric_specs spec "per_layer" in
    List.iter
      (fun (name, unit_) ->
        if not (Stats.valid_name name) then fail "bad metric name %S" name;
        if not (Stats.valid_unit unit_) then fail "bad unit %S" unit_)
      (end_to_end @ per_layer);
    List.iter
      (fun w -> check_workload ~main ~msoc ~end_to_end ~per_layer (Json.string_exn "name" w))
      (Json.list_exn "workloads" spec);
    if !failures > 0 then exit 1
  | _ ->
    prerr_endline "usage: smoke.exe MAIN_EXE MSOC_EXE BENCHMARK_JSON";
    exit 2

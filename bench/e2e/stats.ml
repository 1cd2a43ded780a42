(* Statistics of the end-to-end bench: nearest-rank percentiles with a
   sample floor, self time over a loaded span tree, and the name rules
   every reported metric must satisfy. *)

module Trace = Msoc_obs.Trace

(* A tail percentile is reported only when at least this many samples lie
   beyond its rank; below that one outlier decides the value. *)
let min_beyond = 10

let rank ~p n =
  let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  max 1 (min n r)

let nearest_rank sorted ~p = sorted.(rank ~p (Array.length sorted) - 1)

let supported ~p n = n > 0 && (p <= 50.0 || n - rank ~p n >= min_beyond)

let percentile ~p samples =
  let n = Array.length samples in
  if not (supported ~p n) then None
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    Some (nearest_rank sorted ~p)
  end

let median samples = percentile ~p:50.0 samples

(* ---- span trees ---- *)

let span_end (s : Trace.span) = s.sp_ts_ns +. s.sp_dur_ns

let is_child ~(parent : Trace.span) (s : Trace.span) =
  String.equal s.sp_path (parent.sp_path ^ "/" ^ s.sp_name)

(* Self time of every span: its duration minus the part of its interval
   covered by its direct children (same track, path one level deeper).
   A sweep in start order keeps a stack of spans still open; a span's
   parent is the open span one path level up.  Children arrive in start
   order, so [cursor] (the end of the covered prefix) keeps overlapping
   children from being counted twice. *)
type open_span = { sp : Trace.span; mutable covered : float; mutable cursor : float }

let self_times (spans : Trace.span list) =
  let by_track = Hashtbl.create 8 in
  List.iter
    (fun (s : Trace.span) ->
      Hashtbl.replace by_track s.sp_track
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_track s.sp_track)))
    spans;
  let out = ref [] in
  let close o = out := (o.sp, Float.max 0.0 (o.sp.sp_dur_ns -. o.covered)) :: !out in
  Hashtbl.iter
    (fun _ track_spans ->
      let sorted =
        List.sort
          (fun (a : Trace.span) (b : Trace.span) ->
            match Float.compare a.sp_ts_ns b.sp_ts_ns with
            | 0 -> Float.compare b.sp_dur_ns a.sp_dur_ns
            | c -> c)
          track_spans
      in
      let stack = ref [] in
      List.iter
        (fun (s : Trace.span) ->
          let rec unwind () =
            match !stack with
            | top :: rest when span_end top.sp <= s.sp_ts_ns ->
              close top;
              stack := rest;
              unwind ()
            | _ -> ()
          in
          unwind ();
          let parent o = is_child ~parent:o.sp s && span_end o.sp > s.sp_ts_ns in
          (match List.find_opt parent !stack with
          | Some p ->
            let lo = Float.max s.sp_ts_ns p.cursor in
            let hi = Float.min (span_end s) (span_end p.sp) in
            if hi > lo then begin
              p.covered <- p.covered +. (hi -. lo);
              p.cursor <- hi
            end
          | None -> ());
          stack := { sp = s; covered = 0.0; cursor = s.sp_ts_ns } :: !stack)
        sorted;
      List.iter close !stack)
    by_track;
  !out

let sum_self ~name self =
  List.fold_left
    (fun acc ((s : Trace.span), t) -> if String.equal s.sp_name name then acc +. t else acc)
    0.0 self

(* Share of [root] span time that no direct child covers: the part of a
   request the program's own probes leave unattributed. *)
let residual_share ~root self =
  let total, uncovered =
    List.fold_left
      (fun (total, uncovered) ((s : Trace.span), t) ->
        if String.equal s.sp_name root then (total +. s.sp_dur_ns, uncovered +. t)
        else (total, uncovered))
      (0.0, 0.0) self
  in
  if total > 0.0 then uncovered /. total else 0.0

(* Wall time inside spans named [name], counting only the outermost of
   nested same-name spans so recursion is not double counted. *)
let busy_ns ~name (spans : Trace.span list) =
  List.fold_left
    (fun acc (s : Trace.span) ->
      let ancestors =
        match String.split_on_char '/' s.sp_path |> List.rev with
        | _ :: rest -> rest
        | [] -> []
      in
      if String.equal s.sp_name name && not (List.mem name ancestors) then
        acc +. s.sp_dur_ns
      else acc)
    0.0 spans

(* ---- names ---- *)

let is_alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  String.length s >= 1
  && String.length s <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

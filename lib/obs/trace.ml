(* Offline analysis of a saved trace: parse the JSONL event stream that
   Obs exports (an [--events] file, a [msoc client --trace-out] file, or
   a run's own export behind [--metrics]) and render every view of it —
   the text summary, per-slot occupancy over the run's wall clock, the
   critical chain of the span tree, collapsed stacks and Chrome
   trace_event JSON.  Everything here is pure string/list processing
   over the repo's own JSON reader; no telemetry needs to be live. *)

module Texttable = Msoc_util.Texttable

type span = {
  sp_track : int;
  sp_slot : int option;  (* pool slot, when the span carried a slot arg *)
  sp_name : string;
  sp_path : string;
  sp_ts_ns : float;
  sp_dur_ns : float;
}

type slot = { slot : int; chunks : int; busy_ns : float; steals : int }

type hist = {
  hist : string;
  hist_count : int;
  sum : float;
  min_value : float;
  max_value : float;
  buckets : (float * float * int) list;  (* (lower edge, upper edge, count), ascending *)
}

type t = {
  spans : span list;
  slots : slot list;  (* every slot of the pooled runs, ascending *)
  counters : (string * float) list;  (* merged totals, sorted by name *)
  hists : hist list;  (* merged across tracks, sorted by name *)
  dropped : (int * int) list;  (* (track, span events dropped) *)
}

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* One decoded line.  A span's args are kept for the Chrome conversion,
   which shows them on each slice; [span] itself has no room for them. *)
type record =
  | Span of span * (string * string) list
  | Counter of string * float
  | Hist of hist
  | Track of int * int

(* JSON has no infinities: the exporter writes a non-finite float as null *)
let float_field ~null key j =
  match Json.member key j with Some Json.Null -> null | _ -> Json.number_exn key j

let bucket =
  let edge ~null = function
    | Json.Null -> null
    | Json.Number x -> x
    | _ -> raise (Json.Parse_error "malformed histogram bucket edge")
  in
  function
  | Json.Array [ lo; hi; Json.Number c ] ->
    (edge ~null:neg_infinity lo, edge ~null:infinity hi, int_of_float c)
  | _ -> raise (Json.Parse_error "malformed histogram bucket")

let record_of_line line =
  let j = Json.parse line in
  match Json.string_exn "type" j with
  | "span" ->
    let args =
      match Json.member "args" j with
      | Some (Json.Object fields) ->
        List.filter_map (function k, Json.String v -> Some (k, v) | _ -> None) fields
      | _ -> []
    in
    Some
      (Span
         ( { sp_track = Json.int_exn "track" j;
             sp_slot = Option.bind (List.assoc_opt "slot" args) int_of_string_opt;
             sp_name = Json.string_exn "name" j;
             sp_path = Json.string_exn "path" j;
             sp_ts_ns = Json.number_exn "ts_ns" j;
             sp_dur_ns = Json.number_exn "dur_ns" j },
           args ))
  | "counter" -> Some (Counter (Json.string_exn "name" j, Json.number_exn "value" j))
  | "histogram" ->
    Some
      (Hist
         { hist = Json.string_exn "name" j;
           hist_count = Json.int_exn "count" j;
           sum = float_field ~null:nan "sum" j;
           min_value = float_field ~null:infinity "min" j;
           max_value = float_field ~null:neg_infinity "max" j;
           buckets = List.map bucket (Json.list_exn "buckets" j) })
  | "track" -> Some (Track (Json.int_exn "track" j, Json.int_exn "dropped" j))
  | _ -> None

(* Unparseable lines are skipped with a stderr warning rather than
   failing the whole parse: a daemon killed mid-write leaves a truncated
   final line, and concatenated exports can carry each other's framing
   debris.  Only a text with no salvageable record at all is an error,
   naming the first line that broke and the format expected. *)
let records text =
  let skipped = ref 0 and first_error = ref None in
  let kept =
    String.split_on_char '\n' text
    |> List.mapi (fun lineno line ->
           if String.trim line = "" then None
           else
             try record_of_line line
             with Json.Parse_error msg ->
               incr skipped;
               if !first_error = None then
                 first_error := Some (Printf.sprintf "line %d: %s" (lineno + 1) msg);
               None)
    |> List.filter_map Fun.id
  in
  match !first_error with
  | _ when String.trim text = "" -> Error "empty trace"
  | None -> Ok kept
  | Some msg when kept = [] ->
    Error
      (msg
     ^ " (expected the JSONL event stream that --events and --trace-out write: one \
        {\"type\":...} object per line)")
  | Some msg ->
    Printf.eprintf
      "trace: warning: skipped %d unparseable line(s) (first: %s) — truncated or concatenated export?\n%!"
      !skipped msg;
    Ok kept

let sorted table =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let rec merge_buckets a b =
  match (a, b) with
  | [], l | l, [] -> l
  | ((la, ha, ca) as x) :: ra, ((lb, _, cb) as y) :: rb ->
    if la = lb then (la, ha, ca + cb) :: merge_buckets ra rb
    else if la < lb then x :: merge_buckets ra b
    else y :: merge_buckets a rb

let merge_hist a b =
  { a with
    hist_count = a.hist_count + b.hist_count;
    sum = a.sum +. b.sum;
    min_value = Float.min a.min_value b.min_value;
    max_value = Float.max a.max_value b.max_value;
    buckets = merge_buckets a.buckets b.buckets }

let is_chunk sp = String.equal sp.sp_name "pool.chunk"

(* A chunk span belongs to the slot its arg names, else to the recording
   track. *)
let slot_of sp = match sp.sp_slot with Some s -> s | None -> sp.sp_track

(* The one per-slot fold of pool work, from the pool.chunk spans alone:
   every slot of the pools their [size] args name (a slot that claimed no
   grain included), with the chunks each ran, their busy time and how
   many it stole (those carrying a [victim] arg). *)
let pool_slots records =
  let table = Hashtbl.create 8 in
  let slot_stat slot =
    Option.value ~default:{ slot; chunks = 0; busy_ns = 0.0; steals = 0 }
      (Hashtbl.find_opt table slot)
  in
  List.iter
    (function
      | Span (sp, args) when is_chunk sp ->
        let size = Option.bind (List.assoc_opt "size" args) int_of_string_opt in
        for slot = 0 to Option.value ~default:0 size - 1 do
          Hashtbl.replace table slot (slot_stat slot)
        done;
        let st = slot_stat (slot_of sp) in
        Hashtbl.replace table st.slot
          { st with
            chunks = st.chunks + 1;
            busy_ns = st.busy_ns +. sp.sp_dur_ns;
            steals = (st.steals + if List.mem_assoc "victim" args then 1 else 0) }
      | Span _ | Counter _ | Hist _ | Track _ -> ())
    records;
  List.map snd (sorted table)

let parse text =
  Result.map
    (fun records ->
      let counters = Hashtbl.create 16 and hists = Hashtbl.create 16 in
      List.iter
        (function
          | Counter (name, v) ->
            Hashtbl.replace counters name
              (Option.value ~default:0.0 (Hashtbl.find_opt counters name) +. v)
          | Hist h ->
            Hashtbl.replace hists h.hist
              (match Hashtbl.find_opt hists h.hist with Some into -> merge_hist into h | None -> h)
          | Span _ | Track _ -> ())
        records;
      { spans = List.filter_map (function Span (sp, _) -> Some sp | _ -> None) records;
        slots = pool_slots records;
        counters = sorted counters;
        hists = List.map snd (sorted hists);
        dropped = List.filter_map (function Track (tr, n) -> Some (tr, n) | _ -> None) records })
    (records text)

let load file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> Result.map_error (fun msg -> file ^ ": " ^ msg) (parse text)

(* ------------------------------------------------------------------ *)
(* Shared aggregation                                                  *)
(* ------------------------------------------------------------------ *)

type path_stat = { path : string; count : int; total_ns : float; p95_ns : float; max_ns : float }

let by_path spans =
  let table : (string, float list ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      match Hashtbl.find_opt table sp.sp_path with
      | Some durs -> durs := sp.sp_dur_ns :: !durs
      | None -> Hashtbl.add table sp.sp_path (ref [ sp.sp_dur_ns ]))
    spans;
  List.map
    (fun (path, durs) ->
      let a = Array.of_list !durs in
      Array.sort compare a;
      let n = Array.length a in
      { path;
        count = n;
        total_ns = Array.fold_left ( +. ) 0.0 a;
        p95_ns = a.(max 0 (int_of_float (Float.ceil (0.95 *. float_of_int n)) - 1));
        max_ns = a.(n - 1) })
    (sorted table)

(* A path's last component, indented two spaces per nesting level. *)
let indented path =
  let depth = String.fold_left (fun acc c -> if c = '/' then acc + 1 else acc) 0 path in
  let name =
    match String.rindex_opt path '/' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  String.make (2 * depth) ' ' ^ name

let wall_window spans =
  match spans with
  | [] -> (0.0, 0.0)
  | sp :: rest ->
    List.fold_left
      (fun (lo, hi) sp ->
        (Float.min lo sp.sp_ts_ns, Float.max hi (sp.sp_ts_ns +. sp.sp_dur_ns)))
      (sp.sp_ts_ns, sp.sp_ts_ns +. sp.sp_dur_ns)
      rest

let tracks t =
  List.sort_uniq compare
    (List.map (fun sp -> sp.sp_track) t.spans @ List.map fst t.dropped)

(* ------------------------------------------------------------------ *)
(* summary: every table of the recorded profile                        *)
(* ------------------------------------------------------------------ *)

(* Upper edge of the bucket holding the 95th percentile, clamped to the
   observed maximum: log2 buckets give a bound, not an exact value. *)
let hist_p95 h =
  let target = int_of_float (Float.ceil (0.95 *. float_of_int h.hist_count)) in
  let rec walk cum = function
    | [] -> h.max_value
    | (_, hi, c) :: rest ->
      if cum + c < target then walk (cum + c) rest else Float.min h.max_value hi
  in
  walk 0 h.buckets

let chunk_spans t = List.filter is_chunk t.spans

let summary t =
  let section title headers rows =
    if rows = [] then None
    else begin
      let tt = Texttable.create ~headers in
      List.iter (Texttable.add_row tt) rows;
      Some (title ^ "\n" ^ Texttable.render tt)
    end
  in
  let lo, hi = wall_window t.spans in
  let wall_ns = hi -. lo in
  let stats = by_path t.spans in
  let header =
    if t.spans = [] then "trace: no span events\n"
    else
      Printf.sprintf "%d span event(s) on %d track(s), wall %.3f ms\n" (List.length t.spans)
        (List.length (tracks t)) (wall_ns /. 1e6)
  in
  (* top-level phases: paths with no '/' — the command's major stages *)
  let phases =
    List.filter (fun s -> not (String.contains s.path '/')) stats
    |> List.sort (fun a b -> compare b.total_ns a.total_ns)
    |> List.map (fun s ->
           [ s.path;
             string_of_int s.count;
             Printf.sprintf "%.3f" (s.total_ns /. 1e6);
             Texttable.cell_pct (s.total_ns /. Float.max wall_ns 1.0) ])
  in
  let spans =
    List.map
      (fun s ->
        [ indented s.path;
          string_of_int s.count;
          Printf.sprintf "%.3f" (s.total_ns /. 1e6);
          Printf.sprintf "%.1f" (s.total_ns /. float_of_int s.count /. 1e3);
          Printf.sprintf "%.1f" (s.p95_ns /. 1e3);
          Printf.sprintf "%.1f" (s.max_ns /. 1e3) ])
      stats
  in
  let hists =
    List.map
      (fun h ->
        [ h.hist;
          string_of_int h.hist_count;
          Printf.sprintf "%.4g" h.min_value;
          Printf.sprintf "%.4g" (h.sum /. float_of_int (max 1 h.hist_count));
          Printf.sprintf "%.4g" (hist_p95 h);
          Printf.sprintf "%.4g" h.max_value ])
      t.hists
  in
  let track_row track =
    let own = List.filter (fun sp -> sp.sp_track = track) t.spans in
    let chunks = List.filter is_chunk own in
    [ Printf.sprintf "domain %d" track;
      string_of_int (List.length own);
      string_of_int (List.length chunks);
      Printf.sprintf "%.3f" (List.fold_left (fun acc sp -> acc +. sp.sp_dur_ns) 0.0 chunks /. 1e6);
      string_of_int (Option.value ~default:0 (List.assoc_opt track t.dropped)) ]
  in
  let pooled = List.length (tracks t) > 1 || chunk_spans t <> [] in
  String.concat "\n"
    (header
    :: List.filter_map Fun.id
         [ section "Phases (top-level spans)" [ "Phase"; "Count"; "Total (ms)"; "Wall share" ]
             phases;
           section "Spans"
             [ "Span"; "Count"; "Total (ms)"; "Mean (us)"; "p95 (us)"; "Max (us)" ]
             spans;
           section "Counters" [ "Counter"; "Total" ]
             (List.map (fun (name, v) -> [ name; Printf.sprintf "%.0f" v ]) t.counters);
           section "Histograms (log2 buckets)"
             [ "Histogram"; "Count"; "Min"; "Mean"; "p95 (<=)"; "Max" ]
             hists;
           section "Domain tracks (pool balance)"
             [ "Track"; "Events"; "Pool chunks"; "Chunk busy (ms)"; "Dropped" ]
             (if pooled then List.map track_row (tracks t) else []) ])

(* ------------------------------------------------------------------ *)
(* utilization: per-slot occupancy + text Gantt                        *)
(* ------------------------------------------------------------------ *)

(* Columns of a Gantt row. *)
let width = 60

let gantt_row ~lo ~wall_ns spans =
  let busy = Array.make width 0.0 in
  let bucket_ns = wall_ns /. float_of_int width in
  List.iter
    (fun sp ->
      let t0 = sp.sp_ts_ns -. lo and t1 = sp.sp_ts_ns -. lo +. sp.sp_dur_ns in
      let b0 = max 0 (int_of_float (t0 /. bucket_ns)) in
      let b1 = min (width - 1) (int_of_float (t1 /. bucket_ns)) in
      for k = b0 to b1 do
        let k_lo = float_of_int k *. bucket_ns and k_hi = float_of_int (k + 1) *. bucket_ns in
        let overlap = Float.min t1 k_hi -. Float.max t0 k_lo in
        if overlap > 0.0 then busy.(k) <- busy.(k) +. overlap
      done)
    spans;
  String.concat ""
    (Array.to_list
       (Array.map
          (fun b ->
            let f = b /. Float.max bucket_ns 1.0 in
            if f <= 0.001 then "\xc2\xb7" (* · *)
            else if f <= 0.25 then "\xe2\x96\x91" (* ░ *)
            else if f <= 0.5 then "\xe2\x96\x92" (* ▒ *)
            else if f <= 0.75 then "\xe2\x96\x93" (* ▓ *)
            else "\xe2\x96\x88" (* █ *))
          busy))

let utilization t =
  let b = Buffer.create 1024 in
  let chunks = chunk_spans t in
  if chunks = [] then
    Buffer.add_string b
      "trace: no pool.chunk spans — the run had no pooled work (or the pool had size 1 \
       and recorded no chunks)\n"
  else begin
    let lo, hi = wall_window chunks in
    let wall_ns = Float.max (hi -. lo) 1.0 in
    let n_slots = List.length t.slots in
    Buffer.add_string b
      (Printf.sprintf
         "Worker occupancy over the pooled window: %d slot(s), wall %.3f ms\n\n" n_slots
         (wall_ns /. 1e6));
    let tt =
      Texttable.create
        ~headers:[ "Slot"; "Chunks"; "Busy (ms)"; "Busy"; "Steals"; "Idle (ms)" ]
    in
    List.iter
      (fun s ->
        Texttable.add_row tt
          [ string_of_int s.slot;
            string_of_int s.chunks;
            Printf.sprintf "%.3f" (s.busy_ns /. 1e6);
            Texttable.cell_pct (s.busy_ns /. wall_ns);
            string_of_int s.steals;
            Printf.sprintf "%.3f" (Float.max 0.0 (wall_ns -. s.busy_ns) /. 1e6) ])
      t.slots;
    Buffer.add_string b (Texttable.render tt);
    let total_busy = List.fold_left (fun acc s -> acc +. s.busy_ns) 0.0 t.slots in
    Buffer.add_string b
      (Printf.sprintf
         "\nparallel efficiency: %s of %d slot(s) busy over the window (1.00 = perfectly \
          parallel, 1/slots = serialized)\n"
         (Texttable.cell_pct (total_busy /. (wall_ns *. float_of_int n_slots)))
         n_slots);
    Buffer.add_string b "\nGantt (one row per slot; \xe2\x96\x88 busy, \xc2\xb7 idle)\n";
    List.iter
      (fun s ->
        Buffer.add_string b
          (Printf.sprintf "slot %d %s\n" s.slot
             (gantt_row ~lo ~wall_ns (List.filter (fun sp -> slot_of sp = s.slot) chunks))))
      t.slots
  end;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* critical path: hot-chain descent through the span tree              *)
(* ------------------------------------------------------------------ *)

let critical_path t =
  let b = Buffer.create 1024 in
  if t.spans = [] then Buffer.add_string b "trace: no span events\n"
  else begin
    let stats = by_path t.spans in
    let children path =
      let prefix = path ^ "/" in
      let plen = String.length prefix in
      List.filter
        (fun s ->
          String.length s.path > plen
          && String.equal (String.sub s.path 0 plen) prefix
          && not (String.contains_from s.path plen '/'))
        stats
    in
    let hottest candidates =
      List.fold_left
        (fun best s ->
          match best with Some b when b.total_ns >= s.total_ns -> best | _ -> Some s)
        None candidates
    in
    match hottest (List.filter (fun s -> not (String.contains s.path '/')) stats) with
    | None -> Buffer.add_string b "trace: no top-level span\n"
    | Some root ->
      Buffer.add_string b "Critical chain (hottest child at each level)\n";
      let tt =
        Texttable.create ~headers:[ "Span"; "Count"; "Total (ms)"; "Of parent"; "Of root" ]
      in
      let rec descend s parent_total =
        Texttable.add_row tt
          [ indented s.path;
            string_of_int s.count;
            Printf.sprintf "%.3f" (s.total_ns /. 1e6);
            Texttable.cell_pct (s.total_ns /. Float.max parent_total 1.0);
            Texttable.cell_pct (s.total_ns /. Float.max root.total_ns 1.0) ];
        Option.iter (fun child -> descend child s.total_ns) (hottest (children s.path))
      in
      descend root root.total_ns;
      Buffer.add_string b (Texttable.render tt)
  end;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* flamegraph conversion                                               *)
(* ------------------------------------------------------------------ *)

(* Collapsed-stack ("folded") lines, the input format of flamegraph.pl,
   inferno and speedscope: one line per unique span path, '/' nesting
   separators rewritten to ';', weighted by SELF time in integer
   microseconds.  Self time is the path's total minus the totals of its
   direct children, clamped at zero (concurrent pooled children can sum
   past their parent's wall time), so box widths in the rendered graph
   add up instead of double-counting. *)
let to_folded t =
  let stats = by_path t.spans in
  let self = Hashtbl.create 32 in
  List.iter (fun s -> Hashtbl.replace self s.path s.total_ns) stats;
  List.iter
    (fun s ->
      match String.rindex_opt s.path '/' with
      | None -> ()
      | Some i ->
        let parent = String.sub s.path 0 i in
        Option.iter
          (fun p -> Hashtbl.replace self parent (p -. s.total_ns))
          (Hashtbl.find_opt self parent))
    stats;
  String.concat ""
    (List.map
       (fun s ->
         Printf.sprintf "%s %d\n"
           (String.map (fun c -> if c = '/' then ';' else c) s.path)
           (int_of_float (Float.round (Float.max 0.0 (Hashtbl.find self s.path) /. 1e3))))
       stats)

(* ------------------------------------------------------------------ *)
(* Chrome conversion                                                   *)
(* ------------------------------------------------------------------ *)

(* Chrome trace-event format (the JSON Array Format wrapped in an
   object), loadable by chrome://tracing and Perfetto: one thread track
   per domain, one complete ("X") event per span carrying its path and
   its own args, timestamps in microseconds written to the nanosecond. *)
let to_chrome text =
  Result.map
    (fun records ->
      let b = Buffer.create 4096 in
      let us ns b = Buffer.add_string b (Printf.sprintf "%.3f" (ns /. 1e3)) in
      let tracks =
        List.sort_uniq compare
          (List.filter_map
             (function
               | Span (sp, _) -> Some sp.sp_track
               | Track (track, _) -> Some track
               | Counter _ | Hist _ -> None)
             records)
      in
      Buffer.add_string b "{\"traceEvents\":[";
      Json.obj_to b
        [ ("name", Json.str "process_name");
          ("ph", Json.str "M");
          ("pid", Json.int 1);
          ("args", Json.args_obj [ ("name", "msoc virtual tester") ]) ];
      List.iter
        (fun track ->
          Buffer.add_char b ',';
          Json.obj_to b
            [ ("name", Json.str "thread_name");
              ("ph", Json.str "M");
              ("pid", Json.int 1);
              ("tid", Json.int track);
              ("args", Json.args_obj [ ("name", Printf.sprintf "domain %d" track) ]) ];
          List.iter
            (function
              | Span (sp, args) when sp.sp_track = track ->
                Buffer.add_char b ',';
                Json.obj_to b
                  [ ("name", Json.str sp.sp_name);
                    ("cat", Json.str "msoc");
                    ("ph", Json.str "X");
                    ("pid", Json.int 1);
                    ("tid", Json.int track);
                    ("ts", us sp.sp_ts_ns);
                    ("dur", us sp.sp_dur_ns);
                    ("args", Json.args_obj (("path", sp.sp_path) :: args)) ]
              | _ -> ())
            records)
        tracks;
      Buffer.add_string b "]}";
      Buffer.contents b)
    (records text)

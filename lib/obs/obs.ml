(* Telemetry for the virtual tester: monotonic-clock spans, counters and
   log2-bucket histograms, recorded into per-domain sinks so that pooled
   code instruments itself without any cross-domain write — probes cannot
   perturb the pool's bit-identity contract.

   Every probe is guarded by one atomic load of [enabled_flag]; the
   disabled path is a few nanoseconds and allocation-free, so the probes
   stay in the hot paths permanently (bench/main.exe measures the cost).

   Concurrency model: a sink belongs to one domain (Domain.DLS) and only
   that domain writes it.  Every sink carries a generation number, and a
   domain's trace is its generation: its own sink plus the pool-worker
   sinks that joined its parallel runs ([follow_caller]).  Both exports,
   the JSONL trace and the Prometheus exposition, read the caller's
   generation under the registry mutex, after its pooled work has
   joined — the pool's join publishes the workers' writes.
   Resetting a generation first folds its counters and histograms into
   the lifetime store, which only [reset] clears, so counts survive the
   per-request resets of a server while span trees stay per request. *)

module Pool = Msoc_util.Pool

let now_ns () = Monotonic_clock.now ()

let enabled_flag = Atomic.make false

(* Export timestamps are relative to this base so that traces start near
   t=0; set when telemetry is first enabled and on every [reset]. *)
let epoch = Atomic.make 0L

(* ------------------------------------------------------------------ *)
(* Log2 buckets.  Bucket 0 collects non-positive (and NaN) values;     *)
(* bucket i (1 <= i <= 129) covers [2^(i-65), 2^(i-64)), with the two  *)
(* end buckets absorbing under/overflow.  Powers of two are exact      *)
(* bucket edges: 1.0 starts bucket 65, 2.0 starts bucket 66, ...       *)
(* ------------------------------------------------------------------ *)

let bucket_count = 130

let bucket_index v =
  if not (v > 0.0) then 0
  else if v = infinity then bucket_count - 1
  else begin
    (* frexp: v = m * 2^e with 0.5 <= m < 1, hence 2^(e-1) <= v < 2^e *)
    let _, e = Float.frexp v in
    let i = e + 64 in
    if i < 1 then 1 else if i > bucket_count - 1 then bucket_count - 1 else i
  end

let bucket_bounds i =
  if i <= 0 then (neg_infinity, 0.0)
  else begin
    let i = min i (bucket_count - 1) in
    let lo = if i = 1 then 0.0 else Float.ldexp 1.0 (i - 65) in
    let hi = if i = bucket_count - 1 then infinity else Float.ldexp 1.0 (i - 64) in
    (lo, hi)
  end

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

let new_hist () =
  { h_count = 0;
    h_sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
    h_buckets = Array.make bucket_count 0 }

let hist_add h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_index v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let hist_merge ~into h =
  into.h_count <- into.h_count + h.h_count;
  into.h_sum <- into.h_sum +. h.h_sum;
  if h.h_min < into.h_min then into.h_min <- h.h_min;
  if h.h_max > into.h_max then into.h_max <- h.h_max;
  Array.iteri (fun i c -> into.h_buckets.(i) <- into.h_buckets.(i) + c) h.h_buckets

(* Find-or-create helpers shared by the per-domain sinks (keyed by name)
   and the lifetime store (keyed by name and labels). *)
let add_count table key by =
  match Hashtbl.find_opt table key with
  | Some r -> r := !r + by
  | None -> Hashtbl.add table key (ref by)

let hist_of table key =
  match Hashtbl.find_opt table key with
  | Some h -> h
  | None ->
    let h = new_hist () in
    Hashtbl.add table key h;
    h

(* ------------------------------------------------------------------ *)
(* Per-domain sinks                                                    *)
(* ------------------------------------------------------------------ *)

type event = {
  ev_path : string;  (* "outer/inner" span nesting path *)
  ev_name : string;
  ev_args : (string * string) list;
  ev_start : int64;
  ev_dur : int64;
}

type sink = {
  domain_id : int;
  mutable generation : int;  (* fresh on creation and on every reset *)
  mutable events : event array;
  mutable n_events : int;
  mutable dropped : int;
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  mutable stack : string list;  (* open span paths, innermost first *)
}

let max_events = 1 lsl 20
let dummy_event = { ev_path = ""; ev_name = ""; ev_args = []; ev_start = 0L; ev_dur = 0L }

(* Sinks outlive their domains on purpose: a [Pool.with_pool] run shuts
   its workers down before the caller exports, and the workers' telemetry
   must still be there. *)
let registry : sink list ref = ref []
let registry_mutex = Mutex.create ()

let generations = Atomic.make 0
let fresh_generation () = 1 + Atomic.fetch_and_add generations 1

let new_sink () =
  let s =
    { domain_id = (Domain.self () :> int);
      generation = fresh_generation ();
      events = [||];
      n_events = 0;
      dropped = 0;
      counters = Hashtbl.create 16;
      hists = Hashtbl.create 16;
      stack = [] }
  in
  Mutex.lock registry_mutex;
  registry := s :: !registry;
  Mutex.unlock registry_mutex;
  s

let sink_key = Domain.DLS.new_key new_sink
let my_sink () = Domain.DLS.get sink_key

let record_event s ev =
  let n = s.n_events in
  if n >= max_events then s.dropped <- s.dropped + 1
  else begin
    let cap = Array.length s.events in
    if n = cap then begin
      let grown = Array.make (max 256 (min max_events (2 * cap))) dummy_event in
      Array.blit s.events 0 grown 0 cap;
      s.events <- grown
    end;
    s.events.(n) <- ev;
    s.n_events <- n + 1
  end

(* ------------------------------------------------------------------ *)
(* Probes                                                              *)
(* ------------------------------------------------------------------ *)

let count ?(by = 1) name =
  if Atomic.get enabled_flag then add_count (my_sink ()).counters name by

let observe name v = if Atomic.get enabled_flag then hist_add (hist_of (my_sink ()).hists name) v

type timer =
  | Inactive
  | Running of { path : string; name : string; args : (string * string) list; t0 : int64 }

let start_span ?(args = []) name =
  if not (Atomic.get enabled_flag) then Inactive
  else begin
    let s = my_sink () in
    let path = match s.stack with [] -> name | parent :: _ -> parent ^ "/" ^ name in
    s.stack <- path :: s.stack;
    Running { path; name; args; t0 = now_ns () }
  end

let stop_span ?args t =
  match t with
  | Inactive -> ()
  | Running r ->
    let t1 = now_ns () in
    let s = my_sink () in
    (match s.stack with
    | top :: rest when String.equal top r.path -> s.stack <- rest
    | _ -> () (* reset() ran mid-span; the stack was already cleared *));
    if Atomic.get enabled_flag then begin
      let args =
        match args with None -> r.args | Some late -> r.args @ late ()
      in
      record_event s
        { ev_path = r.path;
          ev_name = r.name;
          ev_args = args;
          ev_start = r.t0;
          ev_dur = Int64.sub t1 r.t0 }
    end

(* A completed span with caller-supplied timestamps, nested under
   whatever span is currently open on this domain.  This exists for
   intervals that are only known after the fact — a server recording a
   request's queue wait can only do so once it has dequeued the request,
   at which point the interval [enqueue, dequeue] has already elapsed.
   Both stamps must come from [now_ns] (any domain: the clock is
   global), and a negative interval clamps to zero. *)
let record_span ?(args = []) name ~start_ns ~stop_ns =
  if Atomic.get enabled_flag then begin
    let s = my_sink () in
    let path = match s.stack with [] -> name | parent :: _ -> parent ^ "/" ^ name in
    record_event s
      { ev_path = path;
        ev_name = name;
        ev_args = args;
        ev_start = start_ns;
        ev_dur = (let d = Int64.sub stop_ns start_ns in if Int64.compare d 0L < 0 then 0L else d) }
  end

let span ?args name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t = start_span ?args name in
    match f () with
    | v ->
      stop_span t;
      v
    | exception e ->
      stop_span t;
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let enable () =
  if not (Atomic.get enabled_flag) then begin
    if Int64.equal (Atomic.get epoch) 0L then Atomic.set epoch (now_ns ());
    Atomic.set enabled_flag true
  end

let disable () = Atomic.set enabled_flag false

(* ------------------------------------------------------------------ *)
(* Lifetime store: clearing a generation folds its counts in here,    *)
(* and a server records its own labelled series here.  Only [reset]   *)
(* empties it.  [lifetime_mutex] is taken after [registry_mutex].     *)
(* ------------------------------------------------------------------ *)

type series = string * (string * string) list  (* name, labels in order *)

let lifetime_counters : (series, int ref) Hashtbl.t = Hashtbl.create 64
let lifetime_gauges : (series, int) Hashtbl.t = Hashtbl.create 16
let lifetime_hists : (series, hist) Hashtbl.t = Hashtbl.create 32
let lifetime_dropped = ref 0
let lifetime_mutex = Mutex.create ()

module Lifetime = struct
  let locked f = Mutex.protect lifetime_mutex f
  let count ?(labels = []) ?(by = 1) name =
    locked (fun () -> add_count lifetime_counters (name, labels) by)
  let set_total ?(labels = []) name n =
    locked (fun () -> Hashtbl.replace lifetime_counters (name, labels) (ref n))
  let gauge ?(labels = []) name v =
    locked (fun () -> Hashtbl.replace lifetime_gauges (name, labels) v)
  let observe ?(labels = []) name v =
    locked (fun () -> hist_add (hist_of lifetime_hists (name, labels)) v)
end

let clear_sink s =
  s.generation <- fresh_generation ();
  s.n_events <- 0;
  s.dropped <- 0;
  s.stack <- [];
  Hashtbl.reset s.counters;
  Hashtbl.reset s.hists

(* Callers hold [registry_mutex]: a sink is folded and cleared in one
   critical section, so each count reaches the lifetime store once. *)
let fold_and_clear s =
  Mutex.protect lifetime_mutex (fun () ->
      Hashtbl.iter (fun name r -> add_count lifetime_counters (name, []) !r) s.counters;
      Hashtbl.iter (fun name h -> hist_merge ~into:(hist_of lifetime_hists (name, [])) h) s.hists;
      lifetime_dropped := !lifetime_dropped + s.dropped);
  clear_sink s

let reset () =
  Mutex.protect registry_mutex (fun () ->
      List.iter clear_sink !registry;
      Mutex.protect lifetime_mutex (fun () ->
          Hashtbl.reset lifetime_counters;
          Hashtbl.reset lifetime_gauges;
          Hashtbl.reset lifetime_hists;
          lifetime_dropped := 0));
  Atomic.set epoch (now_ns ())

(* The per-request reset: fold the calling domain's generation (its own
   sink and the pool-worker sinks that followed it) into the lifetime
   store and clear it.  Other generations and the epoch are untouched. *)
let reset_domain () =
  let me = my_sink () in
  Mutex.protect registry_mutex (fun () ->
      let g = me.generation in
      List.iter (fun s -> if s.generation = g then fold_and_clear s) !registry)

(* ------------------------------------------------------------------ *)
(* Pool instrumentation.  The hooks live in Msoc_util.Pool (below this *)
(* library in the dependency order) and we install the implementations *)
(* here at module-initialisation time; each hook re-checks the enabled  *)
(* flag, so an installed hook costs one atomic load when disabled.      *)
(* ------------------------------------------------------------------ *)

(* Pool-worker sinks join their caller's generation: a parallel run
   publishes its caller's generation, and a worker whose own differs
   folds and clears its sink, under the registry mutex, before recording
   anything for that run.  A caller that never resets (the CLI) keeps one
   generation, so its workers keep every run.  The published generation
   is global: two pools running parallel work for two callers at once
   are not told apart. *)
let published_generation = Atomic.make 0

let follow_caller () =
  if Pool.on_worker () then begin
    let s = my_sink () in
    let g = Atomic.get published_generation in
    if s.generation <> g then
      Mutex.protect registry_mutex (fun () ->
          fold_and_clear s;
          s.generation <- g)
  end

let () =
  Pool.Hooks.install
    { Pool.Hooks.run =
        (fun ~size:_ ~serialized ->
          if Atomic.get enabled_flag then begin
            count "pool.runs";
            if serialized then count "pool.runs.serialized"
            else Atomic.set published_generation (my_sink ()).generation
          end);
      (* a chunk is one [pool.chunk] span, whose args name its slot, the
         pool's size and, when stolen, its victim, plus one
         [pool.chunk.items] observation *)
      chunk =
        (fun ~size ~slot ~victim ~lo ~hi f ->
          if not (Atomic.get enabled_flag) then f ()
          else begin
            follow_caller ();
            observe "pool.chunk.items" (float_of_int (hi - lo));
            let args = [ ("slot", string_of_int slot); ("size", string_of_int size) ] in
            if victim = slot then span ~args "pool.chunk" f
            else begin
              count "pool.steals";
              span ~args:(args @ [ ("victim", string_of_int victim) ]) "pool.chunk" f
            end
          end) }

(* ------------------------------------------------------------------ *)
(* Exports of the caller's generation, merged deterministically        *)
(* (sinks ordered by domain id; aggregations are order-independent).  *)
(* ------------------------------------------------------------------ *)

(* Run [f] on the calling domain's generation — its own sink and the
   pool-worker sinks that followed it — under the registry mutex, so no
   sink of it can be cleared or leave it while [f] reads.  [f] must not
   take the registry mutex itself. *)
let with_generation f =
  let me = my_sink () in
  Mutex.protect registry_mutex (fun () ->
      let g = me.generation in
      f
        (List.filter (fun s -> s.generation = g) !registry
        |> List.sort (fun a b -> compare a.domain_id b.domain_id)))

(* Per-path span statistics by [msoc trace summary]'s own rule, which
   reads only a span's path and duration. *)
let span_stats sinks =
  List.concat_map
    (fun s ->
      List.init s.n_events (fun i ->
          let ev = s.events.(i) in
          { Trace.sp_track = s.domain_id; sp_slot = None; sp_name = ev.ev_name;
            sp_path = ev.ev_path; sp_ts_ns = Int64.to_float ev.ev_start;
            sp_dur_ns = Int64.to_float ev.ev_dur }))
    sinks
  |> Trace.by_path

let hists_of sinks =
  let table : (string, hist) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s -> Hashtbl.iter (fun name h -> hist_merge ~into:(hist_of table name) h) s.hists)
    sinks;
  table

let dropped_of sinks = List.fold_left (fun acc s -> acc + s.dropped) 0 sinks

let sorted_bindings table =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The trace format: one JSON object per line, sinks in domain-id order.
   Per track: its spans in recording order, its counters and histograms
   by name, then a track line with its event and dropped counts.  Every
   number is exact — times as integers, histogram floats at round-trip
   precision — and a non-finite float (bucket 0's lower bound, the top
   bucket's upper edge) is written as null.  Each bucket carries both its
   edges, so a reader needs no knowledge of the bucket layout.
   [Trace] parses this format and renders every other view of it. *)
let jsonl () =
  with_generation @@ fun sinks ->
  let buffer = Buffer.create 4096 in
  let base = Atomic.get epoch in
  let line fields =
    Json.obj_to buffer fields;
    Buffer.add_char buffer '\n'
  in
  List.iter
    (fun s ->
      for i = 0 to s.n_events - 1 do
        let ev = s.events.(i) in
        line
          [ ("type", Json.str "span");
            ("track", Json.int s.domain_id);
            ("name", Json.str ev.ev_name);
            ("path", Json.str ev.ev_path);
            ("ts_ns", Json.int64 (Int64.sub ev.ev_start base));
            ("dur_ns", Json.int64 ev.ev_dur);
            ("args", Json.args_obj ev.ev_args) ]
      done;
      List.iter
        (fun (name, r) ->
          line
            [ ("type", Json.str "counter");
              ("track", Json.int s.domain_id);
              ("name", Json.str name);
              ("value", Json.int !r) ])
        (sorted_bindings s.counters);
      List.iter
        (fun (name, h) ->
          let buckets b =
            Buffer.add_char b '[';
            let first = ref true in
            Array.iteri
              (fun i c ->
                if c > 0 then begin
                  if not !first then Buffer.add_char b ',';
                  first := false;
                  let lo, hi = bucket_bounds i in
                  Buffer.add_char b '[';
                  Json.float_exact_to b lo;
                  Buffer.add_char b ',';
                  Json.float_exact_to b hi;
                  Buffer.add_char b ',';
                  Json.int_to b c;
                  Buffer.add_char b ']'
                end)
              h.h_buckets;
            Buffer.add_char b ']'
          in
          line
            [ ("type", Json.str "histogram");
              ("track", Json.int s.domain_id);
              ("name", Json.str name);
              ("count", Json.int h.h_count);
              ("sum", Json.num_exact h.h_sum);
              ("min", Json.num_exact h.h_min);
              ("max", Json.num_exact h.h_max);
              ("buckets", buckets) ])
        (sorted_bindings s.hists);
      if s.n_events > 0 || Hashtbl.length s.counters > 0 || Hashtbl.length s.hists > 0 then
        line
          [ ("type", Json.str "track");
            ("track", Json.int s.domain_id);
            ("events", Json.int s.n_events);
            ("dropped", Json.int s.dropped) ])
    sinks;
  Buffer.contents buffer

(* Prometheus text exposition (version 0.0.4) of the lifetime store plus
   the caller's generation.  Counters become counters, gauges gauges,
   log2 histograms become Prometheus histograms with cumulative buckets,
   the generation's per-path span statistics become a summary family
   labelled by path, and dropped events surface as their own counter so
   scrapers can alarm on telemetry loss. *)

let prometheus_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prometheus_label_value v =
  let b = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let prometheus_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prometheus_label_value v)) labels)
    ^ "}"

let prometheus_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Build identity for the msoc_build_info gauge: the CLI and bench set the
   git revision at startup; OCaml version and pool size come from the
   process itself.  Scrapes join on these labels to tell which binary
   produced which telemetry. *)
let build_git_rev = Atomic.make "unknown"
let set_build_info ~git_rev = Atomic.set build_git_rev git_rev

let to_prometheus () =
  with_generation @@ fun sinks ->
  Mutex.protect lifetime_mutex @@ fun () ->
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  (* one TYPE line per family, ahead of its first sample *)
  let family =
    let last = ref "" in
    fun kind name ->
      if not (String.equal name !last) then begin
        last := name;
        line "# TYPE %s %s" name kind
      end
  in
  let counters = Hashtbl.create 64 in
  Hashtbl.iter (fun k r -> add_count counters k !r) lifetime_counters;
  List.iter
    (fun s -> Hashtbl.iter (fun name r -> add_count counters (name, []) !r) s.counters)
    sinks;
  List.iter
    (fun ((name, labels), r) ->
      let name = "msoc_" ^ prometheus_name name ^ "_total" in
      family "counter" name;
      line "%s%s %d" name (prometheus_labels labels) !r)
    (sorted_bindings counters);
  List.iter
    (fun ((name, labels), v) ->
      let name = "msoc_" ^ prometheus_name name in
      family "gauge" name;
      line "%s%s %d" name (prometheus_labels labels) v)
    (sorted_bindings lifetime_gauges);
  let hists = Hashtbl.create 32 in
  Hashtbl.iter (fun k h -> hist_merge ~into:(hist_of hists k) h) lifetime_hists;
  Hashtbl.iter (fun name h -> hist_merge ~into:(hist_of hists (name, [])) h) (hists_of sinks);
  List.iter
    (fun ((name, labels), h) ->
      let name = "msoc_" ^ prometheus_name name in
      family "histogram" name;
      let bucket le n = line "%s_bucket%s %d" name (prometheus_labels (labels @ [ ("le", le) ])) n in
      let cumulative = ref 0 in
      Array.iteri
        (fun i c ->
          if c > 0 then begin
            cumulative := !cumulative + c;
            let _, hi = bucket_bounds i in
            bucket (if hi = infinity then "+Inf" else prometheus_float hi) !cumulative
          end)
        h.h_buckets;
      (* Prometheus requires a terminal +Inf bucket equal to _count *)
      if h.h_buckets.(bucket_count - 1) = 0 then bucket "+Inf" !cumulative;
      line "%s_sum%s %s" name (prometheus_labels labels) (prometheus_float h.h_sum);
      line "%s_count%s %d" name (prometheus_labels labels) h.h_count)
    (sorted_bindings hists);
  let spans = span_stats sinks in
  if spans <> [] then begin
    line "# TYPE msoc_span_duration_nanoseconds summary";
    List.iter
      (fun (st : Trace.path_stat) ->
        let path = prometheus_label_value st.path in
        line "msoc_span_duration_nanoseconds{path=\"%s\",quantile=\"0.95\"} %s" path
          (prometheus_float st.p95_ns);
        line "msoc_span_duration_nanoseconds_sum{path=\"%s\"} %s" path
          (prometheus_float st.total_ns);
        line "msoc_span_duration_nanoseconds_count{path=\"%s\"} %d" path st.count)
      spans
  end;
  line "# TYPE msoc_dropped_span_events_total counter";
  line "msoc_dropped_span_events_total %d" (!lifetime_dropped + dropped_of sinks);
  line "# TYPE msoc_build_info gauge";
  line "msoc_build_info{git_rev=\"%s\",ocaml_version=\"%s\",pool_size=\"%d\"} 1"
    (prometheus_label_value (Atomic.get build_git_rev))
    (prometheus_label_value Sys.ocaml_version)
    (Pool.default_size ());
  Buffer.contents b

(* Exported data with silently missing spans is worse than no data: any
   sink that hit [max_events] makes the export announce itself on stderr. *)
let warn_if_dropped () =
  let dropped = with_generation dropped_of in
  if dropped > 0 then
    Printf.eprintf
      "telemetry: WARNING: %d span event(s) dropped (per-sink cap %d reached); span statistics and traces are incomplete\n%!"
      dropped max_events

let write_jsonl file =
  warn_if_dropped ();
  Out_channel.with_open_text file (fun oc -> output_string oc (jsonl ()))

(* Wire protocol of the msoc daemon: newline-delimited JSON, one request
   object in, one response object out, over a Unix-domain socket.

   Requests name a verb and carry only the parameters that verb reads;
   everything has a default, so [{"verb":"plan"}] is a complete request.
   Responses always carry the status, the server-assigned trace id and
   the timing attribution (queue wait vs service), so every client sees
   the observability plane even when it asked for nothing special. *)

module Json = Msoc_obs.Json

type verb = Plan | Measure | Faultsim | Montecarlo | Schedule | Metrics | Ping | Sleep

let verb_name = function
  | Plan -> "plan"
  | Measure -> "measure"
  | Faultsim -> "faultsim"
  | Montecarlo -> "montecarlo"
  | Schedule -> "schedule"
  | Metrics -> "metrics"
  | Ping -> "ping"
  | Sleep -> "sleep"

let verb_of_name = function
  | "plan" -> Some Plan
  | "measure" -> Some Measure
  | "faultsim" -> Some Faultsim
  | "montecarlo" -> Some Montecarlo
  | "schedule" -> Some Schedule
  | "metrics" -> Some Metrics
  | "ping" -> Some Ping
  | "sleep" -> Some Sleep
  | _ -> None

let all_verbs = [ Plan; Measure; Faultsim; Montecarlo; Schedule; Metrics; Ping; Sleep ]

type request = {
  verb : verb;
  (* plan / measure *)
  topology : string;
  strategy : string;  (* "nominal" | "adaptive" *)
  seed : int;
  (* faultsim *)
  taps : int;
  input_bits : int;
  coeff_bits : int;
  samples : int;
  tones : int;
  (* schedule *)
  soc : string;
  restarts : int;
  iters : int;
  (* montecarlo *)
  trials : int;
  (* sleep (diagnostic: occupy an executor to exercise backpressure) *)
  sleep_ms : int;
  (* the response carries this request's JSONL trace *)
  trace : bool;
}

(* Defaults match the msoc CLI flag defaults, so a bare daemon request
   and a bare CLI invocation describe the same computation. *)
let request ?(topology = "default") ?(strategy = "adaptive") ?(seed = 0) ?(taps = 9)
    ?(input_bits = 10) ?(coeff_bits = 8) ?(samples = 1024) ?(tones = 2)
    ?(soc = "reference") ?(restarts = 8) ?(iters = 400) ?(trials = 50_000)
    ?(sleep_ms = 50) ?(trace = false) verb =
  { verb; topology; strategy; seed; taps; input_bits; coeff_bits; samples; tones;
    soc; restarts; iters; trials; sleep_ms; trace }

(* ---- the request schema: one row per field ---- *)

type _ kind = Int : int kind | Name : string list -> string kind

type field =
  | Field : {
      name : string;
      kind : 'a kind;
      get : request -> 'a;
      set : request -> 'a -> request;
      read_by : verb list;
      docv : string option;
      doc : string;
    }
      -> field

let row ?docv name kind get set read_by doc = Field { name; kind; get; set; read_by; docv; doc }

(* Table order is wire order.  Defaults stay in [request] above. *)
let fields =
  [ row "topology" (Name Msoc_analog.Topology.names) ~docv:"NAME"
      (fun r -> r.topology) (fun r topology -> { r with topology }) [ Plan; Measure ]
      "Signal-path topology to synthesise the plan for; see $(b,--list-topologies).";
    row "strategy" (Name [ "nominal"; "adaptive" ]) ~docv:"STRATEGY"
      (fun r -> r.strategy) (fun r strategy -> { r with strategy })
      [ Plan; Measure; Montecarlo ] "De-embedding strategy: nominal or adaptive.";
    row "seed" Int (fun r -> r.seed) (fun r seed -> { r with seed })
      [ Measure; Faultsim; Montecarlo; Schedule ]
      "Seed; 0 (the default) means the canonical run: the nominal part (measure), \
       zero-phase stimulus tones (faultsim), the canonical study seed (montecarlo) \
       and the canonical annealing seed (schedule).";
    row "taps" Int (fun r -> r.taps) (fun r taps -> { r with taps }) [ Faultsim ]
      "FIR tap count (faultsim).";
    row "input_bits" Int (fun r -> r.input_bits)
      (fun r input_bits -> { r with input_bits }) [ Faultsim ] "Input bus width (faultsim).";
    row "coeff_bits" Int (fun r -> r.coeff_bits)
      (fun r coeff_bits -> { r with coeff_bits }) [ Faultsim ] "Coefficient width (faultsim).";
    row "samples" Int (fun r -> r.samples) (fun r samples -> { r with samples }) [ Faultsim ]
      "Test pattern count (faultsim).";
    row "tones" Int (fun r -> r.tones) (fun r tones -> { r with tones }) [ Faultsim ]
      "Stimulus tone count, 1 or 2 (faultsim).";
    row "soc" (Name Msoc_soc.Soc.names) ~docv:"NAME"
      (fun r -> r.soc) (fun r soc -> { r with soc }) [ Schedule ]
      "SOC fixture to schedule; see $(b,msoc schedule --list-socs).";
    row "restarts" Int ~docv:"N" (fun r -> r.restarts)
      (fun r restarts -> { r with restarts }) [ Schedule ]
      "Simulated-annealing restarts (schedule), fanned out over the domain pool; the \
       chosen schedule is bit-identical at every pool size.";
    row "iters" Int ~docv:"N" (fun r -> r.iters) (fun r iters -> { r with iters })
      [ Schedule ] "Annealing moves per restart (schedule).";
    row "trials" Int (fun r -> r.trials) (fun r trials -> { r with trials }) [ Montecarlo ]
      "Monte-Carlo trial count (montecarlo).";
    row "sleep_ms" Int (fun r -> r.sleep_ms) (fun r sleep_ms -> { r with sleep_ms })
      [ Sleep ] "Executor hold time (sleep)." ]

let reads verb (Field f) = List.mem verb f.read_by

(* A value as it is encoded on the wire. *)
let emit : type a. a kind -> a -> Buffer.t -> unit = function
  | Int -> Json.int
  | Name _ -> Json.str

(* The canonical computation identity behind a request: the verb plus
   exactly the fields that verb reads.  Projecting down to the read set
   makes the key total over equivalent requests — a faultsim request with
   an exotic [soc] field shares a key with one that left it defaulted.
   Each value is encoded as on the wire, strings quoted and escaped, so
   no two different projections share a key. *)
let cache_key r =
  match r.verb with
  | Metrics | Ping | Sleep -> None
  | verb ->
    let b = Buffer.create 64 in
    Buffer.add_string b (verb_name verb);
    List.iter
      (fun (Field f as row) ->
        if reads verb row then begin
          Buffer.add_char b '|';
          emit f.kind (f.get r) b
        end)
      fields;
    Some (Buffer.contents b)

let max_line_bytes = 1 lsl 20

(* Scan only the [n] new bytes: [pending] already holds the unterminated
   tail, so a line that arrives in k reads costs its length, not k times
   it. *)
let split_lines pending chunk n f =
  let rec scan start i =
    if i = n then Buffer.add_subbytes pending chunk start (n - start)
    else if Bytes.get chunk i = '\n' then begin
      Buffer.add_subbytes pending chunk start (i - start);
      let line = Buffer.contents pending in
      Buffer.clear pending;
      f line;
      scan (i + 1) (i + 1)
    end
    else scan start (i + 1)
  in
  scan 0 0

let request_to_json r =
  let b = Buffer.create 256 in
  Json.obj_to b
    ((("verb", Json.str (verb_name r.verb))
     :: List.map (fun (Field f) -> (f.name, emit f.kind (f.get r))) fields)
    @ if r.trace then [ ("trace", Json.bool true) ] else []);
  Buffer.contents b

(* Request fields are typed strictly: a field of the wrong JSON type is
   an error naming it, never its default, and a number is an int only if
   it is integral and inside OCaml's int range (no truncation). *)
exception Bad_field of string

let string_member key j =
  match Json.member key j with
  | None -> None
  | Some (Json.String s) -> Some s
  | Some _ -> raise (Bad_field (Printf.sprintf "field %S must be a string" key))

let int_member ~default key j =
  match Json.member key j with
  | None -> default
  | Some (Json.Number v) when Float.is_integer v && v >= -0x1p62 && v < 0x1p62 -> int_of_float v
  | Some _ ->
    raise (Bad_field (Printf.sprintf "field %S must be an integer within the int range" key))

let member : type a. a kind -> string -> Json.value -> default:a -> a =
 fun kind key j ~default ->
  match kind with
  | Int -> int_member ~default key j
  | Name _ -> Option.value ~default (string_member key j)

let request_of_json line =
  match Json.parse_result line with
  | Error msg -> Error ("invalid request JSON: " ^ msg)
  | Ok j ->
    (try
       match string_member "verb" j with
       | None -> Error "request is missing the \"verb\" field"
       | Some name ->
         (match verb_of_name name with
         | None ->
           Error
             (Printf.sprintf "unknown verb %S (known: %s)" name
                (String.concat ", " (List.map verb_name all_verbs)))
         | Some verb ->
           let trace =
             match Json.member "trace" j with
             | None -> false
             | Some (Json.Bool b) -> b
             | Some _ -> raise (Bad_field "field \"trace\" must be a boolean")
           in
           Ok
             (List.fold_left
                (fun r (Field f) -> f.set r (member f.kind f.name j ~default:(f.get r)))
                { (request verb) with trace } fields))
     with Bad_field msg -> Error msg)

type status = Ok_ | Overloaded | Failed

let status_name = function Ok_ -> "ok" | Overloaded -> "overloaded" | Failed -> "error"

let status_of_name = function
  | "ok" -> Some Ok_
  | "overloaded" -> Some Overloaded
  | "error" -> Some Failed
  | _ -> None

type response = {
  status : status;
  trace_id : string;
  verb : string;
  body : string;  (* rendered result text, or the error message *)
  queue_ns : int;
  service_ns : int;
  pool_size : int;
  trace_export : string option;
}

let response_to_json r =
  let b = Buffer.create (String.length r.body + 256) in
  Json.obj_to b
    ([ ("status", Json.str (status_name r.status));
       ("trace_id", Json.str r.trace_id);
       ("verb", Json.str r.verb);
       ("body", Json.str r.body);
       ("queue_ns", Json.int r.queue_ns);
       ("service_ns", Json.int r.service_ns);
       ("pool_size", Json.int r.pool_size) ]
    @
    match r.trace_export with
    | None -> []
    | Some text -> [ ("trace", Json.str text) ]);
  Buffer.contents b

let response_of_json line =
  match Json.parse_result line with
  | Error msg -> Error ("invalid response JSON: " ^ msg)
  | Ok j ->
    (try
       match Option.bind (string_member "status" j) status_of_name with
       | None -> Error "response is missing a valid \"status\" field"
       | Some status ->
         let str key = Option.value ~default:"" (string_member key j) in
         Ok
           { status;
             trace_id = str "trace_id";
             verb = str "verb";
             body = str "body";
             queue_ns = int_member ~default:0 "queue_ns" j;
             service_ns = int_member ~default:0 "service_ns" j;
             pool_size = int_member ~default:0 "pool_size" j;
             trace_export = string_member "trace" j }
     with Bad_field msg -> Error msg)

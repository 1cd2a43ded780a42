(** Wire protocol of the msoc daemon: newline-delimited JSON over a
    Unix-domain socket, one request object per line in, one response
    object per line out.

    Every request parameter has a default matching the msoc CLI flag
    defaults, so [{"verb":"plan"}] is a complete request describing the
    same computation as a bare [msoc plan]. *)

type verb = Plan | Measure | Faultsim | Montecarlo | Schedule | Metrics | Ping | Sleep
(** [Montecarlo] runs the IIP3 de-embedding error study
    ([strategy]/[trials]/[seed]); [Schedule] solves an SOC test schedule
    ([soc]/[restarts]/[iters]); [Metrics] returns the Prometheus
    exposition ("GET /metrics" in spirit); [Ping] is a liveness probe;
    [Sleep] occupies an executor for a client-chosen time — a diagnostic
    for exercising queue backpressure. *)

val verb_name : verb -> string
val verb_of_name : string -> verb option
val all_verbs : verb list

type request = {
  verb : verb;
  topology : string;
  strategy : string;
  seed : int;
  taps : int;
  input_bits : int;
  coeff_bits : int;
  samples : int;
  tones : int;
  soc : string;
  restarts : int;
  iters : int;
  trials : int;
  sleep_ms : int;
  trace : bool;
      (** When set ([true] on the wire), the response carries this
          request's trace: its Obs generation as JSONL. *)
}

val request :
  ?topology:string -> ?strategy:string -> ?seed:int -> ?taps:int ->
  ?input_bits:int -> ?coeff_bits:int -> ?samples:int -> ?tones:int ->
  ?soc:string -> ?restarts:int -> ?iters:int -> ?trials:int ->
  ?sleep_ms:int -> ?trace:bool -> verb -> request
(** A request with every unspecified field at its CLI default. *)

(** {2 The request schema}

    Every request field except [verb] and [trace] is declared once, as a
    row of {!fields}.  The wire codec, {!cache_key} and the msoc CLI's
    request flags are all derived from the table, so adding a field takes
    the record field, its default in {!request} and one row. *)

type _ kind =
  | Int : int kind  (** a JSON integer; an [int] flag *)
  | Name : string list -> string kind
      (** a JSON string; the CLI flag accepts only the listed names *)

type field =
  | Field : {
      name : string;
          (** the wire name; the CLI flag is the same name with [-] for [_] *)
      kind : 'a kind;
      get : request -> 'a;
      set : request -> 'a -> request;
      read_by : verb list;
          (** the verbs whose result depends on the field: the field is in
              their {!cache_key} and a flag of their CLI subcommand *)
      docv : string option;  (** the flag's value placeholder in help *)
      doc : string;  (** the flag's help text *)
    }
      -> field
(** One row of the schema.  A row's default is [get (request verb)]. *)

val fields : field list
(** One row per field, in wire order. *)

val reads : verb -> field -> bool
(** [reads verb row]: [verb] is in the row's [read_by]. *)

val cache_key : request -> string option
(** Canonical identity of the computation a request describes: the verb
    name, then, for each row of {!fields} that the verb reads, in table
    order, ['|'] and the field's value encoded as on the wire (strings
    quoted and escaped), as in [measure|"default"|"adaptive"|3].  Two
    requests differing only in fields the verb ignores share a key, and
    no two different projections do.  [None] for the verbs that read
    daemon state or wall-clock time (Metrics/Ping/Sleep) — those are
    never cacheable.  This key indexes both the synthesis result cache
    and the daemon's in-flight table, so a duplicate of a running request
    joins its execution and a later one reads its cached body.  It is an
    opaque in-process identity: compare it, never parse it. *)

val max_line_bytes : int
(** The longest unterminated request line the daemon buffers, 1 MiB (a
    request line is about 200 bytes).  Past it the daemon answers one
    [error] response with verb [invalid] and closes the connection. *)

val split_lines : Buffer.t -> Bytes.t -> int -> (string -> unit) -> unit
(** [split_lines pending chunk n f] frames [n] freshly read bytes of
    [chunk]: [f] receives each line they complete, without its newline,
    and the unterminated tail stays in [pending] for the next read.  Only
    the new bytes are scanned, so a line arriving in k reads costs time
    linear in its length. *)

val request_to_json : request -> string
(** One line, no trailing newline. *)

val request_of_json : string -> (request, string) result
(** Missing fields take their defaults and unknown fields are ignored.
    An unknown verb is an [Error], and so is a field of the wrong JSON
    type, named in the message: a string field must be a string, an int
    field an integral number inside OCaml's int range (never truncated),
    and [trace] a boolean. *)

type status =
  | Ok_         (** executed; [body] is the rendered result *)
  | Overloaded  (** bounded queue full: rejected without executing *)
  | Failed      (** executed or parsed with an error; [body] explains *)

val status_name : status -> string

type response = {
  status : status;
  trace_id : string;
  verb : string;
  body : string;
  queue_ns : int;    (** time spent waiting in the bounded queue *)
  service_ns : int;  (** dequeue-to-response-built execution time *)
  pool_size : int;
  trace_export : string option;
}

val response_to_json : response -> string
val response_of_json : string -> (response, string) result

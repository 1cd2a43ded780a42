(* v5 dropped the paper-vs-measured [comparisons] rows; older files keep
   parsing, their comparisons ignored, and so are the v3 latency
   percentiles ([p50_ns], [p99_ns]) that no bench writes any more. *)
let schema_version = 5

type timing = {
  t_name : string;
  mean_ns : float;
  stddev_ns : float;
  samples : int;
  (* allocation evidence (schema v2): per-iteration GC load.  Reports
     written at schema v1 parse with all three at 0.0. *)
  minor_words : float;
  major_words : float;
  major_collections : float;
}

(* acceptance bound on a scalar (schema v4): bench-diff regresses a
   report whose scalar violates its own declared bound.  v1..v3 reports
   parse with no bound. *)
type bound = Le of float | Ge of float

type scalar = {
  s_name : string;
  value : float;
  unit_label : string;
  bound : bound option;
}

type section = {
  sec_name : string;
  timings : timing list;
  scalars : scalar list;
}

type meta = {
  version : int;
  git_rev : string;
  ocaml_version : string;
  pool_size : int;
  mode : string;
}

type t = { meta : meta; sections : section list }

let section t name =
  List.find_opt (fun s -> String.equal s.sec_name name) t.sections

(* ------------------------------------------------------------------ *)
(* Builder: rows accumulate in reverse, sections keyed by name but     *)
(* emitted in first-touch order.                                       *)
(* ------------------------------------------------------------------ *)

type partial = {
  mutable p_timings : timing list;
  mutable p_scalars : scalar list;
}

type builder = {
  b_meta : meta;
  b_sections : (string, partial) Hashtbl.t;
  mutable b_order : string list;  (* reversed first-touch order *)
}

let create ~git_rev ~pool_size ~mode () =
  { b_meta =
      { version = schema_version;
        git_rev;
        ocaml_version = Sys.ocaml_version;
        pool_size;
        mode };
    b_sections = Hashtbl.create 16;
    b_order = [] }

let partial_of b section =
  match Hashtbl.find_opt b.b_sections section with
  | Some p -> p
  | None ->
    let p = { p_timings = []; p_scalars = [] } in
    Hashtbl.add b.b_sections section p;
    b.b_order <- section :: b.b_order;
    p

let add_timing b ~section ~name ~mean_ns ~stddev_ns ~samples ?(minor_words = 0.0)
    ?(major_words = 0.0) ?(major_collections = 0.0) () =
  let p = partial_of b section in
  p.p_timings <-
    { t_name = name; mean_ns; stddev_ns; samples; minor_words; major_words; major_collections }
    :: p.p_timings

let add_scalar b ~section ~name ?(unit_label = "") ?bound value =
  let p = partial_of b section in
  p.p_scalars <- { s_name = name; value; unit_label; bound } :: p.p_scalars

let finalize b =
  { meta = b.b_meta;
    sections =
      List.rev_map
        (fun name ->
          let p = Hashtbl.find b.b_sections name in
          { sec_name = name;
            timings = List.rev p.p_timings;
            scalars = List.rev p.p_scalars })
        b.b_order }

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let timing_fields t =
  [ ("name", Json.str t.t_name);
    ("mean_ns", Json.num_exact t.mean_ns);
    ("stddev_ns", Json.num_exact t.stddev_ns);
    ("samples", Json.int t.samples);
    ("minor_words", Json.num_exact t.minor_words);
    ("major_words", Json.num_exact t.major_words);
    ("major_collections", Json.num_exact t.major_collections) ]

let scalar_fields s =
  [ ("name", Json.str s.s_name);
    ("value", Json.num_exact s.value);
    ("unit", Json.str s.unit_label) ]
  @
  match s.bound with
  | None -> []
  | Some (Le x) -> [ ("bound_le", Json.num_exact x) ]
  | Some (Ge x) -> [ ("bound_ge", Json.num_exact x) ]

let obj fields buffer = Json.obj_to buffer fields
let arr emits buffer = Json.arr_to buffer emits
let objs fields_of rows = arr (List.map (fun r -> obj (fields_of r)) rows)

let to_json t =
  let buffer = Buffer.create 4096 in
  Json.obj_to buffer
    [ ("schema_version", Json.int t.meta.version);
      ( "meta",
        obj
          [ ("git_rev", Json.str t.meta.git_rev);
            ("ocaml_version", Json.str t.meta.ocaml_version);
            ("pool_size", Json.int t.meta.pool_size);
            ("mode", Json.str t.meta.mode) ] );
      ( "sections",
        arr
          (List.map
             (fun s ->
               obj
                 [ ("name", Json.str s.sec_name);
                   ("timings", objs timing_fields s.timings);
                   ("scalars", objs scalar_fields s.scalars) ])
             t.sections) ) ];
  Buffer.contents buffer

let of_json text =
  match Json.parse text with
  | exception Json.Parse_error msg -> Error msg
  | j ->
    (try
       let version = Json.int_exn "schema_version" j in
       if version < 1 || version > schema_version then
         Error
           (Printf.sprintf "unsupported schema_version %d (expected 1..%d)" version
              schema_version)
       else begin
         let m =
           match Json.member "meta" j with
           | Some m -> m
           | None -> raise (Json.Parse_error "missing object field \"meta\"")
         in
         let meta =
           { version;
             git_rev = Json.string_exn "git_rev" m;
             ocaml_version = Json.string_exn "ocaml_version" m;
             pool_size = Json.int_exn "pool_size" m;
             mode = Json.string_exn "mode" m }
         in
         let sections =
           List.map
             (fun s ->
               { sec_name = Json.string_exn "name" s;
                 timings =
                   ((* the GC fields arrived in schema v2; older rows read 0.0 *)
                    let number_or_zero key t =
                      match Option.bind (Json.member key t) Json.to_number with
                      | Some v -> v
                      | None -> 0.0
                    in
                    List.map
                      (fun t ->
                        { t_name = Json.string_exn "name" t;
                          mean_ns = Json.number_exn "mean_ns" t;
                          stddev_ns = Json.number_exn "stddev_ns" t;
                          samples = Json.int_exn "samples" t;
                          minor_words = number_or_zero "minor_words" t;
                          major_words = number_or_zero "major_words" t;
                          major_collections = number_or_zero "major_collections" t })
                      (Json.list_exn "timings" s));
                 scalars =
                   List.map
                     (fun v ->
                       let bound =
                         (* bounds arrived in schema v4; older rows read None *)
                         match Option.bind (Json.member "bound_le" v) Json.to_number with
                         | Some x -> Some (Le x)
                         | None ->
                           (match
                              Option.bind (Json.member "bound_ge" v) Json.to_number
                            with
                           | Some x -> Some (Ge x)
                           | None -> None)
                       in
                       { s_name = Json.string_exn "name" v;
                         value = Json.number_exn "value" v;
                         unit_label = Json.string_exn "unit" v;
                         bound })
                     (Json.list_exn "scalars" s) })
             (Json.list_exn "sections" j)
         in
         Ok { meta; sections }
       end
     with Json.Parse_error msg -> Error msg)

let write file t =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json t);
      output_char oc '\n')

let read file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> of_json text
  | exception Sys_error msg -> Error msg

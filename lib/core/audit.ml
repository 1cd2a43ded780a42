module Texttable = Msoc_util.Texttable
module Json = Msoc_obs.Json

type t = {
  parameter : string;
  origin : string;
  strategy : string;
  formula : string;
  stimulus : string;
  achieved_err : float;
  rss_err : float;
  instrument_err : float;
  contributions : Accuracy.contribution list;
  prerequisites : string list;
  required_tol : float option;
  fcl : float option;
  yl : float option;
  cost : Cost.t;
}

let opt_num v buffer =
  match v with Some v -> Json.num_exact v buffer | None -> Buffer.add_string buffer "null"

let record_fields r =
  [ ("parameter", Json.str r.parameter);
    ("origin", Json.str r.origin);
    ("strategy", Json.str r.strategy);
    ("formula", Json.str r.formula);
    ("stimulus", Json.str r.stimulus);
    ("achieved_err", Json.num_exact r.achieved_err);
    ("rss_err", Json.num_exact r.rss_err);
    ("instrument_err", Json.num_exact r.instrument_err);
    ( "contributions",
      fun b ->
        Json.arr_to b
          (List.map
             (fun c bb ->
               Json.obj_to bb
                 [ ("source", Json.str c.Accuracy.source);
                   ("err", Json.num_exact c.Accuracy.err) ])
             r.contributions) );
    ("prerequisites", fun b -> Json.arr_to b (List.map Json.str r.prerequisites));
    ("required_tol", opt_num r.required_tol);
    ("fcl", opt_num r.fcl);
    ("yl", opt_num r.yl);
    ( "cost",
      fun b ->
        let c = r.cost in
        Json.obj_to b
          [ ("captures", Json.int c.Cost.captures);
            ("record_samples", Json.int c.Cost.record_samples);
            ("settle_cycles", Json.int c.Cost.settle_cycles);
            ("setup_cycles", Json.int c.Cost.setup_cycles);
            ("ate_cycles", Json.int (Cost.ate_cycles c)) ] ) ]

let to_json records =
  let buffer = Buffer.create 4096 in
  Json.obj_to buffer
    [ ( "audit",
        fun b ->
          Json.arr_to b
            (List.map (fun r bb -> Json.obj_to bb (record_fields r)) records) ) ];
  Buffer.contents buffer

let to_text records =
  let buffer = Buffer.create 1024 in
  if records = [] then Buffer.add_string buffer "audit: no synthesis records\n"
  else begin
    Buffer.add_string buffer "Synthesis audit trail\n";
    let t =
      Texttable.create
        ~headers:
          [ "Parameter"; "Origin"; "Strategy"; "Required tol"; "Achieved err"; "RSS err";
            "FCL"; "YL"; "ATE cycles"; "Prerequisites" ]
    in
    let opt fmt = function Some v -> fmt v | None -> "-" in
    List.iter
      (fun r ->
        Texttable.add_row t
          [ r.parameter;
            r.origin;
            r.strategy;
            opt (Printf.sprintf "±%.3g") r.required_tol;
            Printf.sprintf "±%.3g" r.achieved_err;
            Printf.sprintf "±%.3g" r.rss_err;
            opt (fun v -> Texttable.cell_pct v) r.fcl;
            opt (fun v -> Texttable.cell_pct v) r.yl;
            string_of_int (Cost.ate_cycles r.cost);
            (match r.prerequisites with [] -> "-" | l -> String.concat ", " l) ])
      records;
    Buffer.add_string buffer (Texttable.render t);
    Buffer.add_char buffer '\n';
    List.iter
      (fun r ->
        if r.contributions <> [] then begin
          Buffer.add_string buffer
            (Printf.sprintf "\n%s error budget (%s): %s\n" r.parameter r.strategy r.formula);
          let bt = Texttable.create ~headers:[ "Contribution"; "Err" ] in
          List.iter
            (fun c ->
              Texttable.add_row bt
                [ c.Accuracy.source; Printf.sprintf "±%.3g" c.Accuracy.err ])
            r.contributions;
          Texttable.add_row bt
            [ "instrument (residual)"; Printf.sprintf "±%.3g" r.instrument_err ];
          Buffer.add_string buffer (Texttable.render bt)
        end)
      records
  end;
  Buffer.contents buffer

type contribution = { source : string; err : float }

type t = {
  contributions : contribution list;
  instrument_err : float;
}

let create ?(instrument_err = 0.1) contributions = { contributions; instrument_err }

let worst_case t =
  List.fold_left (fun acc c -> acc +. Float.abs c.err) t.instrument_err t.contributions

let rss t =
  let sum_sq =
    List.fold_left
      (fun acc c -> acc +. (c.err *. c.err))
      (t.instrument_err *. t.instrument_err)
      t.contributions
  in
  sqrt sum_sq

let pp ppf t =
  Format.fprintf ppf "@[<v>error budget (worst %.3g, rss %.3g):" (worst_case t) (rss t);
  List.iter (fun c -> Format.fprintf ppf "@,  %-24s ±%.3g" c.source c.err) t.contributions;
  Format.fprintf ppf "@,  %-24s ±%.3g@]" "instrument" t.instrument_err

(* Whole-SOC model: N named cores, each an instance of a registered path
   topology behind a test wrapper, sharing one ATE test bus and one power
   budget.  The builder validates at construction so the scheduler can
   assume every core individually fits the SOC's constraints. *)

module Topology = Msoc_analog.Topology

type wrapper = {
  bus_bits : int;
  chain_bits : int;
  fixture_cycles : int;
}

type core = {
  name : string;
  topology : string;
  wrapper : wrapper;
  power_mw : float;
}

type t = {
  name : string;
  bus_bits : int;
  power_budget_mw : float;
  ate_clock_hz : float;
  cores : core list;
}

(* Loading one capture's worth of wrapper chain through a TAM of
   [bus_bits] lines takes ceil(chain/bus) bus cycles — the width/time
   trade-off of wrapped-core test planning. *)
let wrapper_load_cycles w = (w.chain_bits + w.bus_bits - 1) / w.bus_bits

let wrapper ~bus_bits ~chain_bits ~fixture_cycles =
  { bus_bits; chain_bits; fixture_cycles }

let core ~name ~topology ~wrapper ~power_mw = { name; topology; wrapper; power_mw }

let create ~name ~bus_bits ~power_budget_mw cores =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if bus_bits < 1 then fail "Soc.create: %s: test bus must be >= 1 bit" name;
  if not (power_budget_mw > 0.0) then fail "Soc.create: %s: power budget must be > 0" name;
  if cores = [] then fail "Soc.create: %s: a SOC needs at least one core" name;
  let rec dup = function
    | [] -> None
    | (c : core) :: rest ->
      if List.exists (fun (o : core) -> String.equal o.name c.name) rest then Some c.name
      else dup rest
  in
  (match dup cores with
  | Some n -> fail "Soc.create: %s: duplicate core name %S" name n
  | None -> ());
  List.iter
    (fun (c : core) ->
      (match Topology.find c.topology with
      | Some _ -> ()
      | None ->
        fail "Soc.create: %s: core %S names unregistered topology %S (known: %s)" name
          c.name c.topology
          (String.concat ", " Topology.names));
      if c.wrapper.bus_bits < 1 then
        fail "Soc.create: %s: core %S wrapper bus must be >= 1 bit" name c.name;
      if c.wrapper.bus_bits > bus_bits then
        fail "Soc.create: %s: core %S wrapper bus %d exceeds the SOC test bus %d" name
          c.name c.wrapper.bus_bits bus_bits;
      if c.wrapper.chain_bits < 1 then
        fail "Soc.create: %s: core %S wrapper chain must be >= 1 bit" name c.name;
      if c.wrapper.fixture_cycles < 0 then
        fail "Soc.create: %s: core %S fixture cycles must be >= 0" name c.name;
      if not (c.power_mw > 0.0) then
        fail "Soc.create: %s: core %S test power must be > 0" name c.name;
      if c.power_mw > power_budget_mw then
        fail "Soc.create: %s: core %S test power %.1f mW exceeds the budget %.1f mW" name
          c.name c.power_mw power_budget_mw)
    cores;
  { name; bus_bits; power_budget_mw; ate_clock_hz = 1e6; cores }

let core_count t = List.length t.cores


(* ---- registry ---- *)

(* The reference 4-core SOC: two copies of the paper receiver on different
   TAM widths, a sigma-delta variant and a low-gain core.  Both global
   constraints bind: the wrapper buses sum to 24 > 16 bus bits, and any
   three of the big cores exceed the 200 mW budget — so the schedule is a
   real packing problem, not a trivial fan-out. *)
let reference () =
  create ~name:"reference" ~bus_bits:16 ~power_budget_mw:200.0
    [ core ~name:"rx0" ~topology:"default"
        ~wrapper:(wrapper ~bus_bits:8 ~chain_bits:96 ~fixture_cycles:400)
        ~power_mw:90.0;
      core ~name:"rx1" ~topology:"default"
        ~wrapper:(wrapper ~bus_bits:4 ~chain_bits:96 ~fixture_cycles:400)
        ~power_mw:90.0;
      core ~name:"sd0" ~topology:"sigma-delta"
        ~wrapper:(wrapper ~bus_bits:8 ~chain_bits:128 ~fixture_cycles:600)
        ~power_mw:70.0;
      core ~name:"lg0" ~topology:"amp-bypass"
        ~wrapper:(wrapper ~bus_bits:4 ~chain_bits:64 ~fixture_cycles:300)
        ~power_mw:45.0 ]

(* Same cores on a starved bus and budget: nearly everything serializes,
   the opposite regime of [reference]. *)
let narrow () =
  create ~name:"narrow" ~bus_bits:8 ~power_budget_mw:120.0
    [ core ~name:"rx0" ~topology:"default"
        ~wrapper:(wrapper ~bus_bits:8 ~chain_bits:96 ~fixture_cycles:400)
        ~power_mw:90.0;
      core ~name:"rx1" ~topology:"default"
        ~wrapper:(wrapper ~bus_bits:4 ~chain_bits:96 ~fixture_cycles:400)
        ~power_mw:90.0;
      core ~name:"sd0" ~topology:"sigma-delta"
        ~wrapper:(wrapper ~bus_bits:8 ~chain_bits:128 ~fixture_cycles:600)
        ~power_mw:70.0;
      core ~name:"lg0" ~topology:"amp-bypass"
        ~wrapper:(wrapper ~bus_bits:4 ~chain_bits:64 ~fixture_cycles:300)
        ~power_mw:45.0 ]

(* Kept sorted by name, like Topology.registry. *)
let registry =
  [ ("narrow", ("the reference cores on a starved 8-bit bus and 120 mW budget", narrow));
    ("reference", ("4 wrapped cores (2x default, sigma-delta, amp-bypass) on a 16-bit bus", reference)) ]

let names = List.map fst registry

let find name =
  Option.map (fun (_, build) -> build ()) (List.assoc_opt name registry)

let summaries = List.map (fun (name, (summary, _)) -> (name, summary)) registry

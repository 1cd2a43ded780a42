module Pool = Msoc_util.Pool
module Obs = Msoc_obs.Obs
module Progress = Msoc_obs.Progress

(* Heartbeat cells, written on coarse boundaries only (per batch, per
   drop round — never per cycle).  Disabled writes cost one atomic load,
   and no cell feeds back into results. *)
let prog_batches = Progress.cell "fault_sim.batches"
let prog_batches_total = Progress.cell "fault_sim.batches_total"
let prog_cycles = Progress.cell "fault_sim.cycles"
let prog_cycles_total = Progress.cell "fault_sim.cycles_total"
let prog_detected = Progress.cell "fault_sim.detected"
let prog_faults = Progress.cell "fault_sim.faults"

(* ------------------------------------------------------------------------
   One engine: good-value table + cone-reduced batches.

   One fault-free reference sim records every node's lane-0 bit per cycle
   (the {e good table}); fault batches pack all 63 lanes with faults (no
   lane-0 reference needed) and evaluate only the reduced program of the
   batch's union cone, loading everything outside it from the good table.
   Two drivers share the per-cycle kernel [step]:

   - [observe] runs every batch over the whole sweep against a full-length
     table and rebuilds each lane's output word from the good word plus
     the lane's cone-output bits;
   - [detect_engine] runs the sweep in 32-cycle chunks against a
     double-buffered table; between chunks, detected faults are dropped and
     survivors repacked into fewer, tighter batches.  A new batch inherits
     each lane's DFF state from the lane's previous batch where the DFF was
     in that batch's cone and the fault-free bit everywhere else (lanes
     provably carry fault-free values outside their own fault's cone).
     Every step is a pure function of the detection prefix, which in turn
     is a pure per-fault predicate of (circuit, drive, samples, fault) — so
     flags are bit-identical for any pool size, including serial. *)

let det_chunk = 32

type dbatch = {
  fault_idx : int array; (* lane l hosts faults.(fault_idx.(l)); ascending *)
  carry : (dbatch * int) array;
      (* per lane: (previous-round batch, lane) whose DFF state this lane
         inherits; [||] means reset state (cycle 0) *)
  mutable red : Cone.reduced option; (* built by the worker that first runs it *)
  mutable state : int array; (* lane words per red.dffs, at the chunk boundary *)
  mutable det_mask : int;
}

type scratch = {
  values : int array;
  am : int array;
  om : int array;
  cone : Cone.scratch;
}

let scratch circuit =
  let n = Netlist.node_count circuit in
  { values = Array.make n 0;
    am = Array.make n (-1); (* all lanes pass-through *)
    om = Array.make n 0;
    cone = Cone.scratch circuit }

let lane_mask nlanes = if nlanes >= Logic_sim.lanes then -1 else (1 lsl nlanes) - 1

(* 0 -> all-zero word, 1 -> all-ones word (every lane carries the bit) *)
let[@inline] broadcast byte = -byte

(* Index of the lowest set bit of a non-zero word. *)
let lsb_index w =
  let x = ref (w land -w) and i = ref 0 in
  if !x land 0xFFFFFFFF = 0 then begin i := 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin i := !i + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin i := !i + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin i := !i + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin i := !i + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then incr i;
  !i

let find_sorted arr x =
  let lo = ref 0 and hi = ref (Array.length arr - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = arr.(mid) in
    if v = x then begin
      res := mid;
      lo := !hi + 1
    end
    else if v < x then lo := mid + 1
    else hi := mid - 1
  done;
  !res

(* Fault indices in ascending runs of at most one word of lanes. *)
let lane_groups idxs =
  let total = Array.length idxs and per = Logic_sim.lanes in
  List.init ((total + per - 1) / per) (fun b ->
      let lo = b * per in
      (lo, min per (total - lo)))

let make_batches idxs carries =
  List.map
    (fun (lo, len) ->
      { fault_idx = Array.sub idxs lo len;
        carry = (if Array.length carries = 0 then [||] else Array.sub carries lo len);
        red = None;
        state = [||];
        det_mask = 0 })
    (lane_groups idxs)

(* Indices of the faults whose node reaches the output, ascending; every
   other fault provably leaves the output stream fault-free. *)
let observable_faults (faults : Fault.t array) obsv =
  let acc = ref [] and blind = ref [] in
  for fi = Array.length faults - 1 downto 0 do
    if obsv.(faults.(fi).Fault.node) then acc := fi :: !acc else blind := fi :: !blind
  done;
  (Array.of_list !acc, Array.of_list !blind)

let batch_cone circuit scratch (faults : Fault.t array) ~succ ~obsv ~bus fault_idx =
  let sources =
    Array.fold_right (fun fi acc -> faults.(fi).Fault.node :: acc) fault_idx []
  in
  Cone.reduce circuit scratch.cone ~succ ~observable:obsv ~sources ~output:bus

(* Lane [l] of the scratch masks carries faults.(fault_idx.(l)). *)
let set_masks scratch (faults : Fault.t array) fault_idx =
  Array.iteri
    (fun lane fi ->
      let f = faults.(fi) in
      let bit = 1 lsl lane in
      if f.Fault.stuck then scratch.om.(f.Fault.node) <- scratch.om.(f.Fault.node) lor bit
      else scratch.am.(f.Fault.node) <- scratch.am.(f.Fault.node) land lnot bit)
    fault_idx

(* Restore the scratch masks for the slot's next batch. *)
let clear_masks scratch (faults : Fault.t array) fault_idx =
  Array.iter
    (fun fi ->
      let node = faults.(fi).Fault.node in
      scratch.am.(node) <- -1;
      scratch.om.(node) <- 0)
    fault_idx

(* The per-cycle kernel of both drivers: load the cone's boundary (the
   broadcast good bit), its input and DFF words (through the fault masks),
   evaluate the reduced program, and latch the next DFF state into [st].
   Row [base] of [good] holds this cycle's fault-free node bytes; the
   cone's values stay in [scratch.values] for the caller to read. *)
let step red scratch ~st ~good ~base =
  let values = scratch.values and am = scratch.am and om = scratch.om in
  let boundary = red.Cone.boundary and inp = red.Cone.inputs in
  let dffs = red.Cone.dffs and dff_d = red.Cone.dff_d in
  for k = 0 to Array.length boundary - 1 do
    let node = Array.unsafe_get boundary k in
    Array.unsafe_set values node (broadcast (Char.code (Bytes.unsafe_get good (base + node))))
  done;
  for k = 0 to Array.length inp - 1 do
    let node = Array.unsafe_get inp k in
    let g = broadcast (Char.code (Bytes.unsafe_get good (base + node))) in
    Array.unsafe_set values node (g land Array.unsafe_get am node lor Array.unsafe_get om node)
  done;
  for j = 0 to Array.length dffs - 1 do
    let node = Array.unsafe_get dffs j in
    Array.unsafe_set values node
      (Array.unsafe_get st j land Array.unsafe_get am node lor Array.unsafe_get om node)
  done;
  Cone.eval_program red ~values ~and_mask:am ~or_mask:om;
  for j = 0 to Array.length dffs - 1 do
    Array.unsafe_set st j (Array.unsafe_get values (Array.unsafe_get dff_d j))
  done

(* Per-slot state for pooled item loops: lazily one per worker slot, or a
   single instance on the serial path. *)
let slot_state ?pool make =
  match pool with
  | Some p when Pool.size p > 1 -> Pool.per_slot p make
  | _ ->
    let s = make () in
    fun _ -> s

(* Work items are expensive and uneven (a batch's cost is its cone's
   size), hence [grain:1] and stealing. *)
let run_items ?pool ~n item =
  match pool with
  | Some p when Pool.size p > 1 && n > 1 ->
    Pool.parallel_iter_grained p ~n ~grain:1
      ~f:(fun ~slot ~lo ~hi ->
        for i = lo to hi - 1 do
          item slot i
        done)
      ()
  | _ ->
    for i = 0 to n - 1 do
      item 0 i
    done

(* ------------------------------------------------------------------------
   Full-stream observer. *)

(* Bit [w] of a sign-extended [width]-bit word; flipping the sign bit
   flips every bit above it too. *)
let flip_mask ~width w = if w = width - 1 then -1 lsl w else 1 lsl w

(* Simulate one batch over the whole sweep and rebuild every lane's output
   stream into [streams]: each starts as the good stream, and every cycle
   where a cone output differs from its good bit flips that bus bit in the
   lanes that differ (outside the cone, lanes equal the good machine). *)
let observe_batch scratch ~streams circuit faults ~succ ~obsv ~bus ~n ~good ~good_stream
    fault_idx =
  let red = batch_cone circuit scratch faults ~succ ~obsv ~bus fault_idx in
  let nlanes = Array.length fault_idx in
  let samples = Array.length good_stream in
  for lane = 0 to nlanes - 1 do
    Array.blit good_stream 0 streams.(lane) 0 samples
  done;
  set_masks scratch faults fault_idx;
  let values = scratch.values in
  let st = Array.make (Array.length red.Cone.dffs) 0 in
  let outs = red.Cone.outputs in
  let flips = Array.map (flip_mask ~width:(Array.length bus)) red.Cone.output_bits in
  let live = lane_mask nlanes in
  for cycle = 0 to samples - 1 do
    let base = cycle * n in
    step red scratch ~st ~good ~base;
    for k = 0 to Array.length outs - 1 do
      let node = Array.unsafe_get outs k in
      let d =
        ref
          (Array.unsafe_get values node
           lxor broadcast (Char.code (Bytes.unsafe_get good (base + node)))
           land live)
      in
      while !d <> 0 do
        let s = Array.unsafe_get streams (lsb_index !d) in
        Array.unsafe_set s cycle (Array.unsafe_get s cycle lxor Array.unsafe_get flips k);
        d := !d land (!d - 1)
      done
    done
  done;
  clear_masks scratch faults fault_idx

let observe ?pool circuit ~output ~drive ~samples ~faults ~on_fault =
  let nf = Array.length faults in
  Obs.count "fault_sim.runs";
  Obs.count ~by:nf "fault_sim.faults";
  Obs.span "fault_sim.run" @@ fun () ->
  let n = Netlist.node_count circuit in
  let bus = Netlist.find_output circuit output in
  let samples = max 0 samples in
  (* The good table for the whole sweep, recorded once: the only place
     [drive] runs.  The fault-free machine is simulated even without
     faults, so [good_stream] is always real. *)
  let good = Bytes.create (n * samples) in
  let good_stream = Array.make samples 0 in
  let gsim = Logic_sim.create circuit in
  for cycle = 0 to samples - 1 do
    drive gsim cycle;
    Logic_sim.eval gsim;
    Logic_sim.snapshot_bit0 gsim good ~pos:(cycle * n);
    good_stream.(cycle) <- Logic_sim.read_bus_lane gsim bus ~lane:0;
    Logic_sim.tick gsim
  done;
  let succ = Netlist.successors circuit in
  let obsv = Cone.observable circuit ~output:bus in
  let eligible, blind = observable_faults faults obsv in
  let groups = Array.of_list (lane_groups eligible) in
  let results = Array.make nf None in
  let state =
    slot_state ?pool (fun () ->
        (scratch circuit, Array.init Logic_sim.lanes (fun _ -> Array.make samples 0)))
  in
  Progress.set prog_batches_total (float_of_int (Array.length groups));
  Progress.set prog_faults (float_of_int nf);
  let item slot i =
    let lo, len = groups.(i) in
    let fault_idx = Array.sub eligible lo len in
    let scratch, streams = state slot in
    observe_batch scratch ~streams circuit faults ~succ ~obsv ~bus ~n ~good ~good_stream
      fault_idx;
    Array.iteri
      (fun lane fi -> results.(fi) <- Some (on_fault fi faults.(fi) streams.(lane)))
      fault_idx;
    Progress.add prog_batches 1.0
  in
  run_items ?pool ~n:(Array.length groups) item;
  Array.iter (fun fi -> results.(fi) <- Some (on_fault fi faults.(fi) good_stream)) blind;
  (good_stream, Array.map Option.get results)

(* ------------------------------------------------------------------------
   Exact detection: chunked, cone-reduced, fault-dropping driver. *)

(* Run one batch over cycles [c0, c1) against the good-table chunk [good]
   (row 0 = cycle c0).  Writes newly detected faults into [detected] and
   their first differing cycle into [first] — indices are disjoint across
   batches, so concurrent batches never contend. *)
let run_dbatch scratch circuit (faults : Fault.t array) ~succ ~obsv ~bus ~n ~good ~c0 ~c1
    ~detected ~first batch =
  let red =
    match batch.red with
    | Some r -> r
    | None ->
      let r = batch_cone circuit scratch faults ~succ ~obsv ~bus batch.fault_idx in
      let ndff = Array.length r.Cone.dffs in
      let st = Array.make ndff 0 in
      if c0 > 0 then
        for j = 0 to ndff - 1 do
          let dff = r.Cone.dffs.(j) in
          (* fault-free boundary state: the good machine's DFF value in the
             chunk's first cycle is exactly its state (masks are identity) *)
          let goodbit = Char.code (Bytes.unsafe_get good dff) in
          let w = ref (broadcast goodbit) in
          Array.iteri
            (fun lane (ob, ol) ->
              match ob.red with
              | None -> assert false (* carry sources always ran a chunk *)
              | Some ored ->
                let oj = find_sorted ored.Cone.dffs dff in
                if oj >= 0 then begin
                  let bit = (ob.state.(oj) lsr ol) land 1 in
                  if bit <> goodbit then
                    if bit = 1 then w := !w lor (1 lsl lane)
                    else w := !w land lnot (1 lsl lane)
                end)
            batch.carry;
          st.(j) <- !w
        done;
      batch.red <- Some r;
      batch.state <- st;
      r
  in
  let values = scratch.values in
  let fault_idx = batch.fault_idx in
  set_masks scratch faults fault_idx;
  let st = batch.state and outs = red.Cone.outputs in
  let live_full = lane_mask (Array.length fault_idx) in
  let det = ref batch.det_mask in
  let cycle = ref c0 in
  while !cycle < c1 && !det land live_full <> live_full do
    let base = (!cycle - c0) * n in
    step red scratch ~st ~good ~base;
    let diff = ref 0 in
    for k = 0 to Array.length outs - 1 do
      let node = Array.unsafe_get outs k in
      diff :=
        !diff
        lor (Array.unsafe_get values node
            lxor broadcast (Char.code (Bytes.unsafe_get good (base + node))))
    done;
    let fresh = !diff land live_full land lnot !det in
    if fresh <> 0 then begin
      det := !det lor fresh;
      let f = ref fresh in
      while !f <> 0 do
        let fi = fault_idx.(lsb_index !f) in
        detected.(fi) <- true;
        first.(fi) <- !cycle;
        f := !f land (!f - 1)
      done
    end;
    incr cycle
  done;
  batch.det_mask <- !det;
  clear_masks scratch faults fault_idx

let detect_engine ?pool circuit ~output ~drive ~samples ~faults ~first =
  let nf = Array.length faults in
  let detected = Array.make nf false in
  if nf = 0 || samples <= 0 then detected
  else begin
    let n = Netlist.node_count circuit in
    let bus = Netlist.find_output circuit output in
    let succ = Netlist.successors circuit in
    let obsv = Cone.observable circuit ~output:bus in
    let eligible, _ = observable_faults faults obsv in
    let chunk = min det_chunk samples in
    (* Double-buffered good table: while round r's batches read chunk r,
       one extra work item fills chunk r+1 — only chunk 0 is sequential. *)
    let good_a = Bytes.create (n * chunk) in
    let good_b = Bytes.create (n * chunk) in
    let gsim = Logic_sim.create circuit in
    let fill_good buf c0 c1 =
      for cycle = c0 to c1 - 1 do
        drive gsim cycle;
        Logic_sim.eval gsim;
        Logic_sim.snapshot_bit0 gsim buf ~pos:((cycle - c0) * n);
        Logic_sim.tick gsim
      done
    in
    fill_good good_a 0 chunk;
    let scratch_of = slot_state ?pool (fun () -> scratch circuit) in
    Progress.set prog_cycles_total (float_of_int samples);
    Progress.set prog_faults (float_of_int nf);
    let batches = ref (make_batches eligible [||]) in
    let r = ref 0 in
    let finished = ref (!batches = []) in
    while not !finished do
      let c0 = !r * chunk in
      let c1 = min samples (c0 + chunk) in
      let cur = if !r land 1 = 0 then good_a else good_b in
      let nxt = if !r land 1 = 0 then good_b else good_a in
      let arr = Array.of_list !batches in
      let nb = Array.length arr in
      let more = c1 < samples in
      let item slot i =
        if i < nb then
          run_dbatch (scratch_of slot) circuit faults ~succ ~obsv ~bus ~n ~good:cur ~c0 ~c1
            ~detected ~first arr.(i)
        else fill_good nxt c1 (min samples (c1 + chunk))
      in
      run_items ?pool ~n:(nb + if more then 1 else 0) item;
      (* Drop detected faults; repack survivors (ascending, 63 per batch).
         When nothing dropped, batch compositions are unchanged and their
         in-place state words already sit at the next chunk boundary. *)
      let survivors = ref [] and carries = ref [] and dropped = ref 0 in
      for b = nb - 1 downto 0 do
        let batch = arr.(b) in
        let idxs = batch.fault_idx in
        for lane = Array.length idxs - 1 downto 0 do
          if batch.det_mask land (1 lsl lane) <> 0 then incr dropped
          else begin
            survivors := idxs.(lane) :: !survivors;
            carries := (batch, lane) :: !carries
          end
        done
      done;
      (* serial coordinator section: heartbeat once per round *)
      Progress.set prog_cycles (float_of_int c1);
      Progress.add prog_detected (float_of_int !dropped);
      if (not more) || !survivors = [] then finished := true
      else if !dropped > 0 then begin
        Obs.count ~by:!dropped "fault_sim.dropped";
        batches := make_batches (Array.of_list !survivors) (Array.of_list !carries)
      end;
      incr r
    done;
    detected
  end

let detect_exact ?pool circuit ~output ~drive ~samples ~faults =
  Obs.count "fault_sim.detects";
  Obs.count ~by:(Array.length faults) "fault_sim.faults";
  Obs.span "fault_sim.detect" @@ fun () ->
  let first = Array.make (Array.length faults) (-1) in
  detect_engine ?pool circuit ~output ~drive ~samples ~faults ~first

let detect_cycles ?pool circuit ~output ~drive ~samples ~faults =
  Obs.count "fault_sim.detects";
  Obs.count ~by:(Array.length faults) "fault_sim.faults";
  Obs.span "fault_sim.detect" @@ fun () ->
  let first = Array.make (Array.length faults) (-1) in
  let (_ : bool array) =
    detect_engine ?pool circuit ~output ~drive ~samples ~faults ~first
  in
  first

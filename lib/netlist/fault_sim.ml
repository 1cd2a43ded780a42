module Pool = Msoc_util.Pool
module Obs = Msoc_obs.Obs
module Progress = Msoc_obs.Progress

(* Heartbeat cells, one add per simulated fault.  Disabled writes cost one
   atomic load, and no cell feeds back into results. *)
let prog_done = Progress.cell "fault_sim.faults_done"
let prog_total = Progress.cell "fault_sim.faults_total"

(* ------------------------------------------------------------------------
   One engine: pattern-parallel single-fault propagation.

   Every fanin of a node, a DFF's D input included, has a smaller id than
   the node (see {!Netlist}), so a node's whole stream is a function of
   its fanins' streams.  Streams are bit-sliced by time: bit [c] of word
   [w] is cycle [bits * w + c].  One evaluator runs a program over one
   word: a gate applies its opcode, a DFF shifts its D word up by one
   cycle, carrying D's top bit into its next word (bit 0 of word 0 is the
   reset state), and a full adder writes its sum and carry words.

   - The fault-free machine is the program of every node, in id order;
     each word it computes is stored in the good table.
   - A fault's program is its node's observable forward cone in id order:
     the site as a constant word, the cone's gates, DFFs and full adders,
     and a load from the good table for every fanin outside the cone,
     which provably carries its fault-free value.

   Each fault is simulated alone, so its result is a pure function of
   (circuit, drive, samples, fault) whichever worker runs it. *)

let bits = Sys.int_size (* cycles per word: every bit of a native int *)

(* Opcodes: the eight gates in [Netlist.kind] order (the six two-input
   ones first), the DFF shift, then the full adder. *)
let op_and = 0
let op_or = 1
let op_xor = 4
let op_not = 6
let op_dff = 8
let op_adder = 9

(* One instruction per node: its opcode and operands ([b] is a DFF's carry
   slot); a source node (input or constant) has no instruction, its word
   is loaded from the good table. *)
type code = { op : int array; a : int array; b : int array; dffs : int }

let code circuit =
  let n = Netlist.node_count circuit in
  let op = Array.make n (-1) and a = Array.make n 0 and b = Array.make n 0 in
  let dffs = ref 0 in
  for x = 0 to n - 1 do
    let f0 = Netlist.fanin0 circuit x and f1 = Netlist.fanin1 circuit x in
    a.(x) <- f0;
    b.(x) <- (if f1 >= 0 then f1 else f0);
    match Netlist.kind circuit x with
    | Netlist.Input | Netlist.Const0 | Netlist.Const1 -> ()
    | Netlist.And2 -> op.(x) <- op_and
    | Netlist.Or2 -> op.(x) <- op_or
    | Netlist.Nand2 -> op.(x) <- 2
    | Netlist.Nor2 -> op.(x) <- 3
    | Netlist.Xor2 -> op.(x) <- op_xor
    | Netlist.Xnor2 -> op.(x) <- 5
    | Netlist.Not -> op.(x) <- op_not
    | Netlist.Buf -> op.(x) <- 7
    | Netlist.Dff ->
      op.(x) <- op_dff;
      b.(x) <- !dffs;
      incr dffs
  done;
  { op; a; b; dffs = !dffs }

(* Full adders in [Arith.full_adder]'s shape: five consecutive nodes
   [x = a xor b], [x+1 = x xor c], [x+2 = a and b], [x+3 = x and c] and
   [x+4 = (x+2) or (x+3)].  One runs as a single instruction from [a b c]
   to its sum [x+1] and carry [x+4] when its internal nodes [x], [x+2]
   and [x+3] are private (read only inside the adder, fanouts 2, 1 and 1,
   so [c] is not [x] either; and no bit of the observed bus) and it is
   observable.  The result marks each such [x]; the shape is read from
   the code arrays, since a [Netlist] accessor costs a call per node. *)
let adders (code : code) ~bus ~obsv =
  let n = Array.length code.op in
  let op = code.op and fa = code.a and fb = code.b in
  (* fanout edges as [Netlist.fanout_count] counts them; a bus bit's count
     is one no internal node may have *)
  let fanout = Array.make n 0 in
  for x = 0 to n - 1 do
    if op.(x) >= 0 then begin
      fanout.(fa.(x)) <- fanout.(fa.(x)) + 1;
      if op.(x) < op_not then fanout.(fb.(x)) <- fanout.(fb.(x)) + 1
    end
  done;
  Array.iter (fun x -> fanout.(x) <- -1) bus;
  Array.init n (fun x ->
      x + 4 < n
      && op.(x) = op_xor && op.(x + 1) = op_xor && op.(x + 2) = op_and
      && op.(x + 3) = op_and && op.(x + 4) = op_or
      && fa.(x + 1) = x
      && fa.(x + 2) = fa.(x) && fb.(x + 2) = fb.(x)
      && fa.(x + 3) = x && fb.(x + 3) = fb.(x + 1)
      && fa.(x + 4) = x + 2 && fb.(x + 4) = x + 3
      && fanout.(x) = 2 && fanout.(x + 2) = 1 && fanout.(x + 3) = 1
      && obsv.(x))

(* Per-worker scratch: a program, the current word of every node, and the
   cone marks of the compiler.  A program has at most one instruction or
   load per node, so every buffer has one slot per node. *)
type scratch = {
  loads : int array; (* nodes whose word is read from the good table *)
  mutable nloads : int;
  mutable site : int; (* the node forced to [forced], or -1 *)
  mutable forced : int;
  op : int array;
  dst : int array; (* a full adder's sum; its carry is three nodes on *)
  a : int array;
  b : int array;
  c : int array; (* a full adder's carry-in *)
  mutable len : int;
  outs : int array; (* output-bus positions driven by a cone node *)
  mutable nouts : int;
  mutable words : int; (* words evaluated since the fault was loaded *)
  values : int array;
  carry : int array; (* per DFF slot: D's top bit of the previous word *)
  stamp : int array; (* 2 gen: cone member; 2 gen + 1: loaded *)
  mutable gen : int;
  stream : int array; (* the observed stream of the current fault *)
}

let scratch n ~width ~stream =
  let mk () = Array.make n 0 in
  { loads = mk (); nloads = 0; site = -1; forced = 0; op = mk (); dst = mk (); a = mk ();
    b = mk (); c = mk (); len = 0; outs = Array.make width 0; nouts = 0; words = 0;
    values = mk (); carry = mk (); stamp = mk (); gen = 0; stream = Array.make stream 0 }

let load sc x =
  sc.loads.(sc.nloads) <- x;
  sc.nloads <- sc.nloads + 1

let push sc (code : code) x =
  let i = sc.len in
  sc.op.(i) <- code.op.(x);
  sc.dst.(i) <- x;
  sc.a.(i) <- code.a.(x);
  sc.b.(i) <- code.b.(x);
  sc.len <- i + 1

let push_adder sc ~sum a b c =
  let i = sc.len in
  sc.op.(i) <- op_adder;
  sc.dst.(i) <- sum;
  sc.a.(i) <- a;
  sc.b.(i) <- b;
  sc.c.(i) <- c;
  sc.len <- i + 1

(* The evaluator: the program over word [w], leaving every node's word in
   [values]. *)
let eval_word sc ~table ~nw ~w =
  let values = sc.values and carry = sc.carry in
  let loads = sc.loads in
  for k = 0 to sc.nloads - 1 do
    let x = Array.unsafe_get loads k in
    Array.unsafe_set values x (Array.unsafe_get table ((x * nw) + w))
  done;
  if sc.site >= 0 then values.(sc.site) <- sc.forced;
  let op = sc.op and dst = sc.dst and pa = sc.a and pb = sc.b and pc = sc.c in
  for i = 0 to sc.len - 1 do
    let a = Array.unsafe_get values (Array.unsafe_get pa i) in
    let v =
      match Array.unsafe_get op i with
      | 0 -> a land Array.unsafe_get values (Array.unsafe_get pb i)
      | 1 -> a lor Array.unsafe_get values (Array.unsafe_get pb i)
      | 2 -> lnot (a land Array.unsafe_get values (Array.unsafe_get pb i))
      | 3 -> lnot (a lor Array.unsafe_get values (Array.unsafe_get pb i))
      | 4 -> a lxor Array.unsafe_get values (Array.unsafe_get pb i)
      | 5 -> lnot (a lxor Array.unsafe_get values (Array.unsafe_get pb i))
      | 6 -> lnot a
      | 7 -> a
      | 8 ->
        let slot = Array.unsafe_get pb i in
        let q = (a lsl 1) lor Array.unsafe_get carry slot in
        Array.unsafe_set carry slot ((a lsr (bits - 1)) land 1);
        q
      | _ ->
        let b = Array.unsafe_get values (Array.unsafe_get pb i) in
        let c = Array.unsafe_get values (Array.unsafe_get pc i) in
        let t = a lxor b in
        Array.unsafe_set values (Array.unsafe_get dst i + 3) ((a land b) lor (t land c));
        t lxor c
    in
    Array.unsafe_set values (Array.unsafe_get dst i) v
  done;
  sc.words <- sc.words + 1

(* Valid cycles of word [w]: every bit but past the last sample. *)
let valid ~samples w =
  let rest = samples - (w * bits) in
  if rest >= bits then -1 else (1 lsl rest) - 1

(* Index of the lowest set bit of a non-zero word: [2^k mod 67] differs
   for every [k < 66] (2 is a primitive root of 67), and [2^62] is the
   one negative power, so the offset index is a perfect hash. *)
let lsb_table =
  let t = Array.make 134 0 in
  for k = 0 to bits - 1 do
    t.(((1 lsl k) mod 67) + 67) <- k
  done;
  t

let lsb_index w = Array.unsafe_get lsb_table (((w land -w) mod 67) + 67)

(* Bit [k] of a sign-extended [width]-bit bus value; flipping the sign bit
   flips every bit above it too. *)
let flip_mask ~width k = if k = width - 1 then -1 lsl k else 1 lsl k

(* XOR [flip] into the stream at every cycle of word [w] set in [d]. *)
let flip_cycles stream ~w ~flip d =
  let d = ref d in
  while !d <> 0 do
    let c = (w * bits) + lsb_index !d in
    stream.(c) <- stream.(c) lxor flip;
    d := !d land (!d - 1)
  done

(* Everything a run shares across faults: the good table (node-major, one
   word per node per [bits] cycles) and the observed bus's good stream. *)
type run = {
  code : code;
  bus : Netlist.node array;
  last : int; (* the last bus node: no later node is observable *)
  samples : int;
  nw : int;
  table : int array;
  good : int array;
  obsv : bool array;
  heads : bool array; (* each full adder that runs as one instruction *)
}

let prepare circuit ~output ~drive ~samples =
  let bus = Netlist.find_output circuit output in
  let samples = max 0 samples in
  let nw = (samples + bits - 1) / bits in
  let n = Netlist.node_count circuit in
  let table = Array.make (n * nw) 0 in
  (* [drive] runs once per cycle, in order, on a sim that only latches the
     inputs; their words are read back into the table bit by bit. *)
  let inputs = Array.map snd (Netlist.inputs circuit) in
  let sim = Logic_sim.create circuit in
  for cycle = 0 to samples - 1 do
    drive sim cycle;
    let w = cycle / bits and bit = 1 lsl (cycle mod bits) in
    for k = 0 to Array.length inputs - 1 do
      let x = inputs.(k) in
      if Logic_sim.input_word sim x land 1 = 1 then
        table.((x * nw) + w) <- table.((x * nw) + w) lor bit
    done
  done;
  (* The fault-free machine: the evaluator on the program of every node,
     loading the sources (inputs, and constants filled here). *)
  let code = code circuit in
  let machine = scratch n ~width:0 ~stream:0 in
  for x = 0 to n - 1 do
    if code.op.(x) < 0 then begin
      if Netlist.kind circuit x = Netlist.Const1 then Array.fill table (x * nw) nw (-1);
      load machine x
    end
    else push machine code x
  done;
  for w = 0 to nw - 1 do
    eval_word machine ~table ~nw ~w;
    for x = 0 to n - 1 do
      table.((x * nw) + w) <- machine.values.(x)
    done
  done;
  (* the good stream: the flip rule applied to a zero stream *)
  let width = Array.length bus in
  let good = Array.make samples 0 in
  Array.iteri
    (fun k x ->
      for w = 0 to nw - 1 do
        flip_cycles good ~w ~flip:(flip_mask ~width k)
          (table.((x * nw) + w) land valid ~samples w)
      done)
    bus;
  let obsv = Cone.observable circuit ~output:bus in
  let heads = adders code ~bus ~obsv in
  let fused = Array.fold_left (fun k h -> if h then k + 1 else k) 0 heads in
  if fused > 0 then Obs.count ~by:fused "fault_sim.full_adders";
  { code; bus; last = Array.fold_left max (-1) bus; samples; nw; table; good; obsv; heads }

(* Compile the observable forward cone of [site] (an observable node) in
   one sweep in id order, which places every instruction after its
   operands: a node joins the cone when it is observable and reads a cone
   member.  A full adder that a cone member reaches joins as one
   instruction; one holding the site never does, since the sweep starts
   past the site, inside it, and meets its later gates one by one. *)
let compile sc r site =
  sc.gen <- sc.gen + 1;
  let member = 2 * sc.gen in
  let stamp = sc.stamp and obsv = r.obsv and heads = r.heads in
  let op = r.code.op and fa = r.code.a and fb = r.code.b in
  (* a fanin outside the cone carries its fault-free word *)
  let read x =
    if stamp.(x) < member then begin
      stamp.(x) <- member + 1;
      load sc x
    end
  in
  stamp.(site) <- member;
  sc.site <- site;
  sc.nloads <- 0;
  sc.len <- 0;
  let x = ref (site + 1) in
  while !x <= r.last do
    let y = !x in
    if heads.(y) then begin
      let a = fa.(y) and b = fb.(y) and c = fb.(y + 1) in
      if stamp.(a) = member || stamp.(b) = member || stamp.(c) = member then begin
        read a;
        read b;
        read c;
        push_adder sc ~sum:(y + 1) a b c;
        stamp.(y + 1) <- member;
        stamp.(y + 4) <- member
      end;
      x := y + 5
    end
    else begin
      let o = op.(y) in
      if o >= 0 && obsv.(y)
         && (stamp.(fa.(y)) = member || (o < op_dff && stamp.(fb.(y)) = member))
      then begin
        read fa.(y);
        if o < op_dff then read fb.(y);
        push sc r.code y;
        stamp.(y) <- member
      end;
      x := y + 1
    end
  done;
  sc.nouts <- 0;
  for k = 0 to Array.length r.bus - 1 do
    if stamp.(r.bus.(k)) = member then begin
      sc.outs.(sc.nouts) <- k;
      sc.nouts <- sc.nouts + 1
    end
  done

(* Point the slot's program at [fault]: compile its node's cone unless the
   previous fault sat on the same node (collapsed lists keep a node's two
   polarities adjacent), then force the site. *)
let load_fault r sc (fault : Fault.t) =
  if sc.site <> fault.Fault.node then compile sc r fault.Fault.node;
  sc.forced <- (if fault.Fault.stuck then -1 else 0);
  sc.words <- 0;
  Array.fill sc.carry 0 r.code.dffs 0

(* First cycle at which the loaded fault's output differs from the good
   machine, or -1: simulation stops at the first differing word. *)
let first_difference r sc =
  let rec word w =
    if w >= r.nw then -1
    else begin
      eval_word sc ~table:r.table ~nw:r.nw ~w;
      let d = ref 0 in
      for k = 0 to sc.nouts - 1 do
        let x = r.bus.(sc.outs.(k)) in
        d := !d lor (sc.values.(x) lxor r.table.((x * r.nw) + w))
      done;
      let d = !d land valid ~samples:r.samples w in
      if d <> 0 then (w * bits) + lsb_index d else word (w + 1)
    end
  in
  word 0

(* The loaded fault's output stream, rebuilt in [sc.stream] from the good
   stream: every cycle where a cone output differs from its good word
   flips that bus bit. *)
let fault_stream r sc =
  let stream = sc.stream and width = Array.length r.bus in
  Array.blit r.good 0 stream 0 r.samples;
  for w = 0 to r.nw - 1 do
    eval_word sc ~table:r.table ~nw:r.nw ~w;
    let m = valid ~samples:r.samples w in
    for k = 0 to sc.nouts - 1 do
      let pos = sc.outs.(k) in
      let x = r.bus.(pos) in
      flip_cycles stream ~w ~flip:(flip_mask ~width pos)
        ((sc.values.(x) lxor r.table.((x * r.nw) + w)) land m)
    done
  done;
  stream

(* Faults per pool grain: enough that a node's two polarities usually
   share a slot, few enough to balance uneven cones. *)
let grain = 8

(* The one fault loop under every driver.  Faults of one equivalence
   class ({!Fault.classes}) give the same output stream, so only each
   class's first member, its representative, is looked at: [item sc fi]
   runs on the pool, with one scratch per worker slot, for every
   representative whose node reaches the output; then, on the calling
   domain, [blind fi] for every other representative, ascending, and
   [share fi rep] for every other member of a class.  Results land by
   fault index. *)
let run_faults ?(pool = Pool.serial) circuit r ~faults ~stream ~blind ~share item =
  let rep = Fault.classes circuit ~output:r.bus faults in
  let eligible = ref [] and unseen = ref [] in
  for fi = Array.length faults - 1 downto 0 do
    if rep.(fi) = fi then
      if r.obsv.(faults.(fi).Fault.node) then eligible := fi :: !eligible
      else unseen := fi :: !unseen
  done;
  let eligible = Array.of_list !eligible in
  let n = Array.length eligible in
  let make () = scratch (Array.length r.code.op) ~width:(Array.length r.bus) ~stream in
  Progress.set prog_total (float_of_int n);
  let run sc lo hi =
    for i = lo to hi - 1 do
      let fi = eligible.(i) in
      load_fault r sc faults.(fi);
      item sc fi;
      Obs.count ~by:(sc.len * sc.words) "fault_sim.instructions";
      Progress.add prog_done 1.0
    done
  in
  let sc = Pool.per_slot pool make in
  Pool.parallel_iter_grained pool ~n ~grain ~f:(fun ~slot ~lo ~hi -> run (sc slot) lo hi) ();
  List.iter blind !unseen;
  let members = ref 0 in
  Array.iteri
    (fun fi k ->
      if k <> fi then begin
        share fi k;
        incr members
      end)
    rep;
  if !members > 0 then Obs.count ~by:!members "fault_sim.equivalent"

let observe ?pool circuit ~output ~drive ~samples ~faults ~on_fault =
  let nf = Array.length faults in
  Obs.count "fault_sim.runs";
  Obs.count ~by:nf "fault_sim.faults";
  Obs.span "fault_sim.run" @@ fun () ->
  let r = prepare circuit ~output ~drive ~samples in
  let results = Array.make nf None in
  run_faults ?pool circuit r ~faults ~stream:r.samples
    ~blind:(fun fi -> results.(fi) <- Some (on_fault fi faults.(fi) r.good))
    ~share:(fun fi k -> results.(fi) <- results.(k))
    (fun sc fi -> results.(fi) <- Some (on_fault fi faults.(fi) (fault_stream r sc)));
  (r.good, Array.map Option.get results)

let detect_cycles ?pool circuit ~output ~drive ~samples ~faults =
  Obs.count "fault_sim.detects";
  Obs.count ~by:(Array.length faults) "fault_sim.faults";
  Obs.span "fault_sim.detect" @@ fun () ->
  let r = prepare circuit ~output ~drive ~samples in
  let first = Array.make (Array.length faults) (-1) in
  run_faults ?pool circuit r ~faults ~stream:0 ~blind:ignore
    ~share:(fun fi k -> first.(fi) <- first.(k))
    (fun sc fi -> first.(fi) <- first_difference r sc);
  let dropped =
    Array.fold_left (fun acc c -> if c >= 0 && c / bits < r.nw - 1 then acc + 1 else acc) 0 first
  in
  if dropped > 0 then Obs.count ~by:dropped "fault_sim.dropped";
  first

let detect_exact ?pool circuit ~output ~drive ~samples ~faults =
  Array.map (fun c -> c >= 0) (detect_cycles ?pool circuit ~output ~drive ~samples ~faults)

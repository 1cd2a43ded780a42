(* Bounded LRU: hashtable for lookup, intrusive doubly-linked list for
   recency order (head = most recent, tail = eviction candidate).  One
   mutex guards everything — the cache sees request-granularity traffic,
   not per-item hot paths. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  mutex : Mutex.t;
  table : (string, 'a node) Hashtbl.t;
  capacity : int;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be at least 1";
  { mutex = Mutex.create ();
    table = Hashtbl.create (min capacity 64);
    capacity;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0 }

(* list surgery; caller holds the mutex *)
let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t key =
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.table key with
    | Some n ->
      t.hits <- t.hits + 1;
      unlink t n;
      push_front t n;
      Some n.value
    | None ->
      t.misses <- t.misses + 1;
      None
  in
  Mutex.unlock t.mutex;
  r

let add t key value =
  Mutex.lock t.mutex;
  (match Hashtbl.find_opt t.table key with
  | Some n ->
    n.value <- value;
    unlink t n;
    push_front t n
  | None ->
    if Hashtbl.length t.table >= t.capacity then (
      match t.tail with
      | Some lru ->
        unlink t lru;
        Hashtbl.remove t.table lru.key;
        t.evictions <- t.evictions + 1
      | None -> ());
    let n = { key; value; prev = None; next = None } in
    Hashtbl.add t.table key n;
    push_front t n);
  Mutex.unlock t.mutex

let counter get t =
  Mutex.lock t.mutex;
  let v = get t in
  Mutex.unlock t.mutex;
  v

let hits t = counter (fun t -> t.hits) t
let misses t = counter (fun t -> t.misses) t
let evictions t = counter (fun t -> t.evictions) t

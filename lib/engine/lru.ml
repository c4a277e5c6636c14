type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable first : ('k, 'v) node option; (* most recently used *)
  mutable last : ('k, 'v) node option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  on_evict : unit -> unit;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let create ?(on_evict = ignore) capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  {
    capacity;
    table = Hashtbl.create (max 16 capacity);
    first = None;
    last = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    on_evict;
  }

let length t = Hashtbl.length t.table

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.first <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.last <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.first;
  node.prev <- None;
  (match t.first with Some f -> f.prev <- Some node | None -> ());
  t.first <- Some node;
  if t.last = None then t.last <- Some node

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    t.hits <- t.hits + 1;
    unlink t node;
    push_front t node;
    Some node.value
  | None ->
    t.misses <- t.misses + 1;
    None

let mem t key = Hashtbl.mem t.table key

let evict_last t =
  match t.last with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table node.key;
    t.evictions <- t.evictions + 1;
    t.on_evict ()

let add t key value =
  if t.capacity > 0 then begin
    (match Hashtbl.find_opt t.table key with
    | Some node ->
      node.value <- value;
      unlink t node;
      push_front t node
    | None ->
      if Hashtbl.length t.table >= t.capacity then evict_last t;
      let node = { key; value; prev = None; next = None } in
      Hashtbl.replace t.table key node;
      push_front t node)
  end

let clear t =
  let n = Hashtbl.length t.table in
  Hashtbl.reset t.table;
  t.first <- None;
  t.last <- None;
  t.evictions <- t.evictions + n;
  for _ = 1 to n do
    t.on_evict ()
  done;
  n

let stats (t : (_, _) t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    entries = Hashtbl.length t.table;
  }

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "hits %d, misses %d, evictions %d, entries %d" s.hits
    s.misses s.evictions s.entries

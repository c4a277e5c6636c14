(* Shard count: enough to keep a machine's worth of serving domains off
   each other's cache lines, small enough that merges stay trivial.
   Power of two so the shard pick is a mask, not a mod. *)
let n_shards = 16
let shard_mask = n_shards - 1

(* Power-of-two histogram buckets: bucket i holds [2^i, 2^(i+1)), the
   last bucket is open-ended. 48 buckets cover 1 ns .. ~3.2 days. *)
let n_buckets = 48

let shard () = (Domain.self () :> int) land shard_mask

type counter = int Atomic.t array

(* An all-float record is stored flat, so [set] writes the double in
   place without boxing it: a gauge set once per MH advance allocates
   nothing. A racing reader sees one of the values written. *)
type gauge = { mutable reading : float }

type histogram = {
  h_buckets : int Atomic.t array array; (* shard -> per-bucket counts *)
  h_sums : int Atomic.t array; (* shard -> sum of raw values *)
  h_scale : float;
}

type data =
  | Counter_data of counter
  | Gauge_data of gauge
  | Histogram_data of histogram

type spec = {
  name : string;
  labels : (string * string) list;
  help : string;
  data : data;
}

type registry = { lock : Mutex.t; mutable specs : spec list (* newest first *) }

let create_registry () = { lock = Mutex.create (); specs = [] }
let default = create_registry ()

(* ----- name and label hygiene (Prometheus data model) ----- *)

let valid_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       s

let valid_label_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let kind_of_data = function
  | Counter_data _ -> "counter"
  | Gauge_data _ -> "gauge"
  | Histogram_data _ -> "histogram"

(* Register under (name, labels), idempotently: re-registering the same
   metric returns the existing cells, so module-initialisation-time
   handles in different libraries can share a metric. *)
let register registry ~name ~labels ~help make kind =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Obs.Metrics: bad metric name %S" name);
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg (Printf.sprintf "Obs.Metrics: bad label name %S" k))
    labels;
  let labels = List.sort compare labels in
  Mutex.lock registry.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry.lock)
    (fun () ->
      match
        List.find_opt
          (fun s -> s.name = name && s.labels = labels)
          registry.specs
      with
      | Some s ->
        if kind_of_data s.data <> kind then
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %s already registered as a %s" name
               (kind_of_data s.data));
        s.data
      | None ->
        (match
           List.find_opt
             (fun s -> s.name = name && kind_of_data s.data <> kind)
             registry.specs
         with
        | Some clash ->
          invalid_arg
            (Printf.sprintf
               "Obs.Metrics: %s already registered as a %s (cannot mix kinds \
                across label sets)"
               name
               (kind_of_data clash.data))
        | None -> ());
        let data = make () in
        registry.specs <- { name; labels; help; data } :: registry.specs;
        data)

(* ----- counters ----- *)

let counter ?(registry = default) ?(labels = []) ?(help = "") name =
  match
    register registry ~name ~labels ~help
      (fun () -> Counter_data (Array.init n_shards (fun _ -> Atomic.make 0)))
      "counter"
  with
  | Counter_data c -> c
  | _ -> assert false

let add c n =
  if n > 0 then ignore (Atomic.fetch_and_add c.(shard ()) n)

let inc c = add c 1

let counter_value c = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c

(* ----- gauges ----- *)

let gauge ?(registry = default) ?(labels = []) ?(help = "") name =
  match
    register registry ~name ~labels ~help
      (fun () -> Gauge_data { reading = 0.0 })
      "gauge"
  with
  | Gauge_data g -> g
  | _ -> assert false

let set g v = g.reading <- v

let set_ratio g num den =
  g.reading <- (if den = 0 then 0.0 else float_of_int num /. float_of_int den)

let gauge_value g = g.reading

(* ----- histograms ----- *)

let histogram ?(registry = default) ?(labels = []) ?(help = "") ?(scale = 1.0)
    name =
  match
    register registry ~name ~labels ~help
      (fun () ->
        Histogram_data
          {
            h_buckets =
              Array.init n_shards (fun _ ->
                  Array.init n_buckets (fun _ -> Atomic.make 0));
            h_sums = Array.init n_shards (fun _ -> Atomic.make 0);
            h_scale = scale;
          })
      "histogram"
  with
  | Histogram_data h -> h
  | _ -> assert false

let bucket_index v =
  if v <= 1 then 0
  else begin
    (* highest set bit of v, capped at the open-ended last bucket *)
    let v = ref v and i = ref 0 in
    while !v > 1 do
      v := !v lsr 1;
      incr i
    done;
    min !i (n_buckets - 1)
  end

(* raw upper edge of bucket i; the last bucket is open-ended *)
let bucket_upper i =
  if i >= n_buckets - 1 then infinity else Float.of_int (1 lsl (i + 1))

let observe h v =
  let v = max 0 v in
  let s = shard () in
  ignore (Atomic.fetch_and_add h.h_buckets.(s).(bucket_index v) 1);
  ignore (Atomic.fetch_and_add h.h_sums.(s) v)

let merged_buckets h =
  let out = Array.make n_buckets 0 in
  Array.iter
    (fun shard ->
      Array.iteri (fun i a -> out.(i) <- out.(i) + Atomic.get a) shard)
    h.h_buckets;
  out

let histogram_count h = Array.fold_left ( + ) 0 (merged_buckets h)

let histogram_sum h =
  Array.fold_left (fun acc a -> acc + Atomic.get a) 0 h.h_sums

let quantile h q =
  if not (q > 0.0 && q <= 1.0) then
    invalid_arg "Obs.Metrics.quantile: q outside (0, 1]";
  let buckets = merged_buckets h in
  let total = Array.fold_left ( + ) 0 buckets in
  if total = 0 then nan
  else begin
    let target = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let rec go i cum =
      let cum = cum + buckets.(i) in
      if cum >= target then bucket_upper i else go (i + 1) cum
    in
    go 0 0
  end

(* ----- scrape ----- *)

type snapshot_value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      scale : float;
      sum : int;
      buckets : (float * int) array;
    }

type sample = {
  sample_name : string;
  sample_labels : (string * string) list;
  sample_help : string;
  sample_value : snapshot_value;
}

let histogram_snapshot h =
  let buckets = merged_buckets h in
  let last_nonempty = ref 0 in
  Array.iteri (fun i c -> if c > 0 then last_nonempty := i) buckets;
  (* keep the populated prefix plus the open-ended +Inf bucket *)
  let upto = min (!last_nonempty + 1) (n_buckets - 1) in
  let cum = ref 0 in
  let entries =
    Array.init (upto + 1) (fun i ->
        cum := !cum + buckets.(i);
        (bucket_upper i, !cum))
  in
  let total = Array.fold_left ( + ) 0 buckets in
  let entries =
    if fst entries.(upto) = infinity then (
      entries.(upto) <- (infinity, total);
      entries)
    else Array.append entries [| (infinity, total) |]
  in
  Histogram_v { scale = h.h_scale; sum = histogram_sum h; buckets = entries }

let snapshot registry =
  let specs =
    Mutex.lock registry.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock registry.lock)
      (fun () -> List.rev registry.specs)
  in
  List.map
    (fun s ->
      let value =
        match s.data with
        | Counter_data c -> Counter_v (counter_value c)
        | Gauge_data g -> Gauge_v (gauge_value g)
        | Histogram_data h -> histogram_snapshot h
      in
      {
        sample_name = s.name;
        sample_labels = s.labels;
        sample_help = s.help;
        sample_value = value;
      })
    specs

(* ----- JSON snapshot ----- *)

let json_float f =
  if Float.is_nan f then "null"
  else if f = infinity then "1e999"
  else if f = neg_infinity then "-1e999"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_json_string registry =
  let buf = Buffer.create 4096 in
  let str s =
    Buffer.add_char buf '"';
    Json.escape buf s;
    Buffer.add_char buf '"'
  in
  Buffer.add_string buf "{\n  \"metrics\": [";
  List.iteri
    (fun i s ->
      Buffer.add_string buf (if i = 0 then "\n    {" else ",\n    {");
      Buffer.add_string buf "\"name\": ";
      str s.sample_name;
      if s.sample_labels <> [] then begin
        Buffer.add_string buf ", \"labels\": {";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_string buf ", ";
            str k;
            Buffer.add_string buf ": ";
            str v)
          s.sample_labels;
        Buffer.add_string buf "}"
      end;
      (match s.sample_value with
      | Counter_v v ->
        Buffer.add_string buf
          (Printf.sprintf ", \"type\": \"counter\", \"value\": %d" v)
      | Gauge_v v ->
        Buffer.add_string buf
          (Printf.sprintf ", \"type\": \"gauge\", \"value\": %s" (json_float v))
      | Histogram_v { scale; sum; buckets } ->
        let count =
          if Array.length buckets = 0 then 0
          else snd buckets.(Array.length buckets - 1)
        in
        Buffer.add_string buf
          (Printf.sprintf
             ", \"type\": \"histogram\", \"scale\": %s, \"count\": %d, \
              \"sum\": %d, \"buckets\": ["
             (json_float scale) count sum);
        let prev = ref 0 and first = ref true in
        Array.iter
          (fun (le, cum) ->
            let c = cum - !prev in
            prev := cum;
            if c > 0 then begin
              if not !first then Buffer.add_string buf ", ";
              first := false;
              Buffer.add_string buf
                (Printf.sprintf "{\"le\": %s, \"count\": %d}" (json_float le) c)
            end)
          buckets;
        Buffer.add_string buf "]");
      Buffer.add_string buf "}")
    (snapshot registry);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

type arg = Int of int | Float of float | Str of string

type sink = { oc : out_channel; mutable first : bool }

let lock = Mutex.create ()
let sink : sink option ref = ref None

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let close_locked () =
  match !sink with
  | None -> ()
  | Some s ->
    output_string s.oc "\n]\n";
    close_out_noerr s.oc;
    sink := None

let close () = locked close_locked

(* A crashed or non-closing run used to leave an unterminated JSON
   array; registering the close once per process (not once per
   [to_file]) keeps repeated re-installs from stacking exit hooks. *)
let exit_hook = ref false

let to_file path =
  let oc = open_out path in
  locked (fun () ->
      close_locked ();
      output_string oc "[";
      sink := Some { oc; first = true };
      if not !exit_hook then begin
        exit_hook := true;
        at_exit close
      end)

let enabled () = !sink <> None

let add_arg buf (k, v) =
  Buffer.add_char buf '"';
  Json.escape buf k;
  Buffer.add_string buf "\": ";
  match v with
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
    else Buffer.add_string buf "null"
  | Str s ->
    Buffer.add_char buf '"';
    Json.escape buf s;
    Buffer.add_char buf '"'

(* ts/dur in microseconds with nanosecond decimals, the unit the trace
   viewers expect *)
let us ns = Printf.sprintf "%.3f" (float_of_int ns /. 1e3)

let emit ~name ~ph ?(args = []) ~ts_ns ?dur_ns () =
  let tid = (Domain.self () :> int) in
  let buf = Buffer.create 160 in
  Buffer.add_string buf "{\"name\": \"";
  Json.escape buf name;
  Buffer.add_string buf (Printf.sprintf "\", \"ph\": \"%s\"" ph);
  Buffer.add_string buf (Printf.sprintf ", \"ts\": %s" (us ts_ns));
  (match dur_ns with
  | Some d -> Buffer.add_string buf (Printf.sprintf ", \"dur\": %s" (us d))
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf ", \"pid\": %d, \"tid\": %d" (Unix.getpid ()) tid);
  if ph = "i" then Buffer.add_string buf ", \"s\": \"t\"";
  if args <> [] then begin
    Buffer.add_string buf ", \"args\": {";
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_string buf ", ";
        add_arg buf a)
      args
  end;
  if args <> [] then Buffer.add_string buf "}";
  Buffer.add_string buf "}";
  locked (fun () ->
      match !sink with
      | None -> ()
      | Some s ->
        output_string s.oc (if s.first then "\n" else ",\n");
        s.first <- false;
        output_string s.oc (Buffer.contents buf))

let instant name ?args () =
  if enabled () then emit ~name ~ph:"i" ?args ~ts_ns:(Clock.now_ns ()) ()

let phase ?hist ?args name ~t0 =
  let dur_ns = Clock.now_ns () - t0 in
  (match hist with Some h -> Metrics.observe h dur_ns | None -> ());
  if enabled () then emit ~name ~ph:"X" ?args ~ts_ns:t0 ~dur_ns ();
  dur_ns

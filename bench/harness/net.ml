(* The server under test as a child process, and the harness's side of
   the wire: JSONL sessions, one-shot HTTP requests, and the server's
   public read-outs (/healthz, /debug/requests, CPU time from /proc). *)

module Clock = Iflow_obs.Clock
module Sockio = Iflow_serve.Sockio
module Jsonl = Iflow_engine.Jsonl

(* everything but --port/--model; the rest keep the CLI defaults *)
let server_flags =
  [
    "--chains"; "2"; "--burn-in"; "200"; "--samples"; "100";
    "--rhat-target"; "1.2"; "--mcse-target"; "0.05";
  ]

type server = { pid : int; port : int; out : Unix.file_descr }

(* every child still running, killed at exit whatever happened *)
let live : int list ref = ref []

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

let kill_now pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (waitpid_noeintr [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter kill_now !live)

(* no allocation: client threads scan every answer with it *)
let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec matches i j = j = k || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + k > n then None else if matches i 0 then Some i else go (i + 1) in
  go 0

(* "infoflow serve: listening on HOST:PORT (model version 0)" *)
let parse_port line =
  match (find_sub line "listening on ", find_sub line " (") with
  | Some _, Some close -> (
    match String.rindex_from_opt line close ':' with
    | Some colon -> int_of_string_opt (String.sub line (colon + 1) (close - colon - 1))
    | None -> None)
  | _ -> None

let read_line_until fd ~deadline_ns =
  let buf = Buffer.create 128 and chunk = Bytes.create 256 in
  let rec go () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> Some (String.sub (Buffer.contents buf) 0 i)
    | None -> (
      let left = deadline_ns - Clock.now_ns () in
      if left <= 0 then None
      else
        match Unix.select [ fd ] [] [] (float_of_int left /. 1e9) with
        | [], _, _ -> go ()
        | _ ->
          let n = Unix.read fd chunk 0 (Bytes.length chunk) in
          if n = 0 then None
          else begin
            Buffer.add_subbytes buf chunk 0 n;
            go ()
          end
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let spawn ~exe ~model ~log =
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let argv =
    Array.of_list (exe :: "serve" :: "--port" :: "0" :: "--model" :: model :: server_flags)
  in
  let pid = Unix.create_process exe argv Unix.stdin w err in
  Unix.close w;
  Unix.close err;
  live := pid :: !live;
  match read_line_until r ~deadline_ns:(Clock.now_ns () + 60_000_000_000) with
  | Some line when parse_port line <> None ->
    { pid; port = Option.get (parse_port line); out = r }
  | _ ->
    kill_now pid;
    Unix.close r;
    failwith (Printf.sprintf "server did not report its port (log: %s)" log)

(* SIGKILL: the server keeps nothing on disk here, and its graceful
   stop takes a quarter of a second, sixteen times a run *)
let stop s =
  kill_now s.pid;
  Unix.close s.out

(* server user+system seconds, in clock ticks of USER_HZ = 100 *)
let cpu_seconds pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* fields after "(comm)": state is field 3, utime 14, stime 15 *)
  let close = String.rindex line ')' in
  let rest = String.sub line (close + 2) (String.length line - close - 2) in
  match String.split_on_char ' ' rest with
  | _ :: f ->
    float_of_int (int_of_string (List.nth f 10) + int_of_string (List.nth f 11)) /. 100.0
  | [] -> failwith "cpu_seconds: malformed /proc stat line"

(* ----- the wire ----- *)

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     (* a wedged server fails the run instead of hanging it *)
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30.0;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  fd

type session = { fd : Unix.file_descr; rd : Sockio.reader }

let session port =
  let fd = connect port in
  { fd; rd = Sockio.reader fd }

let close_session s = try Unix.close s.fd with Unix.Unix_error _ -> ()

(* one request line (newline included) and its answer; [None] when the
   session broke *)
let ask s line =
  match
    Sockio.write_all s.fd line;
    Sockio.read_line s.rd
  with
  | Sockio.Line l -> Some l
  | Sockio.Eof | Sockio.Too_long | Sockio.Timeout -> None
  | exception Unix.Unix_error _ -> None

(* Cheap inspections of answer lines: clients must not spend the CPU
   they share with the server on full JSON decodes. The correctness
   gate decodes its samples in full. *)
let is_answer line = find_sub line "\"estimate\":" <> None

let version_of line =
  match find_sub line "\"version\":" with
  | None -> -1
  | Some i ->
    let j = ref (i + 10) in
    while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do
      incr j
    done;
    Option.value ~default:(-1) (int_of_string_opt (String.sub line (i + 10) (!j - i - 10)))

(* One HTTP request on its own connection: (status, body). *)
let http port ~meth ~path ?(body = "") () =
  match connect port with
  | exception Unix.Unix_error _ -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try
          Sockio.write_all fd
            (Printf.sprintf
               "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n%s"
               meth path (String.length body) body);
          let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
          let rec drain () =
            let n = Unix.read fd chunk 0 (Bytes.length chunk) in
            if n > 0 then begin
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
            end
          in
          drain ();
          let resp = Buffer.contents buf in
          match find_sub resp "\r\n\r\n" with
          | Some i when String.length resp >= 12 ->
            Some
              ( int_of_string (String.sub resp 9 3),
                String.sub resp (i + 4) (String.length resp - i - 4) )
          | _ -> None
        with Unix.Unix_error _ | Failure _ -> None)

(* ----- read-outs ----- *)

type health = {
  version : int;
  digest : string;
  refused : int;  (** shed_* + bad_requests + engine_errors *)
}

let int_member json name =
  match Jsonl.member name json with
  | Some (Jsonl.Num f) -> int_of_float f
  | _ -> 0

let health port =
  match http port ~meth:"GET" ~path:"/healthz" () with
  | Some (_, body) -> (
    match Jsonl.parse (String.trim body) with
    | Ok json ->
      let i = int_member json in
      Some
        {
          version = i "version";
          digest =
            (match Jsonl.member "digest" json with Some (Jsonl.Str d) -> d | _ -> "");
          refused =
            i "shed_capacity" + i "shed_quota" + i "shed_deadline"
            + i "bad_requests" + i "engine_errors";
        }
    | Error _ -> None)
  | None -> None

(* one flight-recorder record, the fields the per-layer metrics use *)
type flight = {
  path : string;  (** "cache" | "exact" | "mh" | "error" *)
  queue_wait_ns : int;
  plan_ns : int;
  sample_ns : int;
  serialize_ns : int;
}

let flight_records port =
  match http port ~meth:"GET" ~path:"/debug/requests?n=1024" () with
  | Some (200, body) -> (
    match Jsonl.parse (String.trim body) with
    | Ok (Jsonl.List recs) ->
      List.map
        (fun r ->
          let i = int_member r in
          {
            path = (match Jsonl.member "path" r with Some (Jsonl.Str p) -> p | _ -> "");
            queue_wait_ns = i "queue_wait_ns";
            plan_ns = i "plan_ns";
            sample_ns = i "sample_ns";
            serialize_ns = i "serialize_ns";
          })
        recs
    | _ -> [])
  | _ -> []

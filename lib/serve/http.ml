type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

type parse = Request of request | Malformed of string | Overflow of string

let verbs = [ "GET"; "POST"; "HEAD"; "PUT"; "DELETE"; "OPTIONS"; "PATCH" ]

let is_http_verb line =
  List.exists
    (fun v ->
      let n = String.length v in
      String.length line > n
      && String.sub line 0 n = v
      && line.[n] = ' ')
    verbs

(* RFC 9110's 1*DIGIT: no sign, no base prefix, no underscores, and
   [None] rather than a wrapped value past [max_int] *)
let decimal s =
  let n = String.length s in
  let rec go i acc =
    if i = n then Some acc
    else
      match s.[i] with
      | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if acc > (max_int - d) / 10 then None else go (i + 1) ((acc * 10) + d)
      | _ -> None
  in
  if n = 0 then None else go 0 0

let header req name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name req.headers

(* target = path['?'query]; the router matches on the path alone *)
let split_target target =
  match String.index_opt target '?' with
  | None -> (target, "")
  | Some i ->
    ( String.sub target 0 i,
      String.sub target (i + 1) (String.length target - i - 1) )

let query_param query name =
  if query = "" then None
  else
    List.find_map
      (fun kv ->
        match String.index_opt kv '=' with
        | None -> if kv = name then Some "" else None
        | Some i ->
          if String.sub kv 0 i = name then
            Some (String.sub kv (i + 1) (String.length kv - i - 1))
          else None)
      (String.split_on_char '&' query)

let reason = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 413 -> "Payload Too Large"
  | 422 -> "Unprocessable Entity"
  | 429 -> "Too Many Requests"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | c -> Printf.sprintf "Status %d" c

let read_request ?(max_headers = 100) ?(max_body_bytes = 8 lsl 20) r
    ~first_line =
  match String.split_on_char ' ' first_line with
  | [ meth; path; _version ] -> (
    let rec read_headers acc n =
      if n > max_headers then Error (Overflow "too many header lines")
      else
        match Sockio.read_line r with
        | Sockio.Eof -> Error (Malformed "connection closed mid-headers")
        | Sockio.Timeout -> Error (Malformed "read timed out mid-headers")
        | Sockio.Too_long -> Error (Overflow "header line too long")
        | Sockio.Line "" -> Ok (List.rev acc)
        | Sockio.Line h -> (
          match String.index_opt h ':' with
          | None -> Error (Malformed (Printf.sprintf "malformed header %S" h))
          | Some i ->
            let name = String.lowercase_ascii (String.sub h 0 i) in
            let value =
              String.trim (String.sub h (i + 1) (String.length h - i - 1))
            in
            read_headers ((name, value) :: acc) (n + 1))
    in
    match read_headers [] 0 with
    | Error e -> e
    | Ok headers -> (
      let content_length =
        match List.assoc_opt "content-length" headers with
        | None -> Ok 0
        | Some v -> (
          match decimal v with
          | Some n -> Ok n
          | None -> Error (Malformed (Printf.sprintf "bad Content-Length %S" v)))
      in
      match content_length with
      | Error e -> e
      | Ok n when n > max_body_bytes ->
        Overflow (Printf.sprintf "body of %d bytes exceeds limit" n)
      | Ok n -> (
        match if n = 0 then Some "" else Sockio.read_exactly r n with
        | None -> Malformed "connection closed mid-body"
        | Some body ->
          Request { meth = String.uppercase_ascii meth; path; headers; body })))
  | _ -> Malformed (Printf.sprintf "malformed request line %S" first_line)

let response ?(headers = []) ~status body =
  let b = Buffer.create (String.length body + 256) in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (reason status));
  if not (List.mem_assoc "Content-Type" headers) then
    Buffer.add_string b "Content-Type: application/json\r\n";
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string b
    (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  Buffer.add_string b "Connection: close\r\n\r\n";
  Buffer.add_string b body;
  Buffer.contents b

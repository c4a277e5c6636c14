type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

exception Parse_error of string

type cursor = { text : string; mutable pos : int }

let error c msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> advance c; go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> error c (Printf.sprintf "expected %C" ch)

let expect_word c w =
  let n = String.length w in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = w then
    c.pos <- c.pos + n
  else error c (Printf.sprintf "expected %S" w)

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | Some ('"' as x) | Some ('\\' as x) | Some ('/' as x) ->
        Buffer.add_char buf x; advance c; go ()
      | Some 'n' -> Buffer.add_char buf '\n'; advance c; go ()
      | Some 't' -> Buffer.add_char buf '\t'; advance c; go ()
      | Some 'r' -> Buffer.add_char buf '\r'; advance c; go ()
      | Some 'b' -> Buffer.add_char buf '\b'; advance c; go ()
      | Some 'f' -> Buffer.add_char buf '\012'; advance c; go ()
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.text then error c "bad \\u escape";
        let hex = String.sub c.text c.pos 4 in
        let code =
          try int_of_string ("0x" ^ hex)
          with _ -> error c "bad \\u escape"
        in
        c.pos <- c.pos + 4;
        (* BMP only; encode as UTF-8 *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
        end;
        go ()
      | _ -> error c "bad escape")
    | Some x -> Buffer.add_char buf x; advance c; go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek c with Some x when is_num_char x -> advance c; go () | _ -> ()
  in
  go ();
  let s = String.sub c.text start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> error c (Printf.sprintf "bad number %S" s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then (advance c; Obj [])
    else begin
      let rec members acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; members ((k, v) :: acc)
        | Some '}' -> advance c; List.rev ((k, v) :: acc)
        | _ -> error c "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then (advance c; List [])
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; elements (v :: acc)
        | Some ']' -> advance c; List.rev (v :: acc)
        | _ -> error c "expected ',' or ']'"
      in
      List (elements [])
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> expect_word c "true"; Bool true
  | Some 'f' -> expect_word c "false"; Bool false
  | Some 'n' -> expect_word c "null"; Null
  | Some _ -> Num (parse_number c)

let parse s =
  let c = { text = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then Error "trailing characters"
    else Ok v
  | exception Parse_error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* 2^53: past it a float no longer names one integer, and past
   [max_int] [int_of_float] returns garbage *)
let max_exact_int = 9_007_199_254_740_992.0

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= max_exact_int ->
    Some (int_of_float f)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None

let to_list = function List vs -> Some vs | _ -> None


type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> true
    | _ -> false
  do
    advance c
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail "at byte %d: expected %c, found %c" c.pos ch x
  | None -> fail "at byte %d: expected %c, found end of input" c.pos ch

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "at byte %d: expected %s" c.pos word

let parse_string c =
  expect c '"';
  let buffer = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' -> advance c; Buffer.add_char buffer '"'; go ()
        | Some '\\' -> advance c; Buffer.add_char buffer '\\'; go ()
        | Some '/' -> advance c; Buffer.add_char buffer '/'; go ()
        | Some 'n' -> advance c; Buffer.add_char buffer '\n'; go ()
        | Some 't' -> advance c; Buffer.add_char buffer '\t'; go ()
        | Some 'r' -> advance c; Buffer.add_char buffer '\r'; go ()
        | Some 'b' -> advance c; Buffer.add_char buffer '\b'; go ()
        | Some 'f' -> advance c; Buffer.add_char buffer '\012'; go ()
        | Some 'u' ->
            (* Our writers only \u-escape ASCII control characters;
               anything outside that range is not ours to decode. *)
            if c.pos + 4 >= String.length c.src then fail "truncated \\u escape";
            let hex = String.sub c.src (c.pos + 1) 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 0x80 ->
                c.pos <- c.pos + 5;
                Buffer.add_char buffer (Char.chr code);
                go ()
            | Some _ | None -> fail "unsupported \\u escape \\u%s" hex)
        | Some ch -> fail "bad escape \\%c" ch
        | None -> fail "unterminated escape")
    | Some ch ->
        advance c;
        Buffer.add_char buffer ch;
        go ()
  in
  go ();
  Buffer.contents buffer

let parse_number c =
  let start = c.pos in
  let numeric = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch when numeric ch -> true | _ -> false) do
    advance c
  done;
  let text = String.sub c.src start (c.pos - start) in
  match float_of_string_opt text with
  | Some v -> v
  | None -> fail "at byte %d: bad number %S" start text

let rec parse_value c =
  skip_ws c;
  match peek c with
  | Some '{' -> parse_obj c
  | Some '[' -> parse_arr c
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> fail "at byte %d: unexpected %c" c.pos ch
  | None -> fail "unexpected end of input"

and parse_obj c =
  expect c '{';
  skip_ws c;
  if peek c = Some '}' then begin
    advance c;
    Obj []
  end
  else begin
    let fields = ref [] in
    let rec go () =
      skip_ws c;
      let key = parse_string c in
      skip_ws c;
      expect c ':';
      let value = parse_value c in
      fields := (key, value) :: !fields;
      skip_ws c;
      match peek c with
      | Some ',' -> advance c; go ()
      | Some '}' -> advance c
      | _ -> fail "at byte %d: expected , or } in object" c.pos
    in
    go ();
    Obj (List.rev !fields)
  end

and parse_arr c =
  expect c '[';
  skip_ws c;
  if peek c = Some ']' then begin
    advance c;
    Arr []
  end
  else begin
    let items = ref [] in
    let rec go () =
      let value = parse_value c in
      items := value :: !items;
      skip_ws c;
      match peek c with
      | Some ',' -> advance c; go ()
      | Some ']' -> advance c
      | _ -> fail "at byte %d: expected , or ] in array" c.pos
    in
    go ();
    Arr (List.rev !items)
  end

let parse src =
  let c = { src; pos = 0 } in
  let value = parse_value c in
  skip_ws c;
  if c.pos <> String.length src then fail "trailing garbage at byte %d" c.pos;
  value

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_num = function Num v -> Some v | _ -> None

(* A JSON number is a double, which holds every integer exactly only
   within +-(2^53 - 1); past that a number stands for several integers
   (or none an [int] can hold), so it is refused, not converted. *)
let max_exact_int = (1 lsl 53) - 1

let to_int = function
  | Num v when Float.is_integer v && Float.abs v <= float_of_int max_exact_int ->
      Some (int_of_float v)
  | _ -> None

let to_list = function Arr l -> Some l | _ -> None

let to_obj = function Obj fields -> Some fields | _ -> None

let add_escaped buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\t' -> Buffer.add_string buffer "\\t"
      | '\r' -> Buffer.add_string buffer "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

let rec add_value buffer = function
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (string_of_bool b)
  | Num v ->
      Buffer.add_string buffer
        (if not (Float.is_finite v) then "null"
         else if Float.rem v 1.0 = 0.0 && Float.abs v < 1e15 then
           string_of_int (int_of_float v)
         else Printf.sprintf "%.9g" v)
  | Str s -> add_escaped buffer s
  | Arr items ->
      Buffer.add_char buffer '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buffer ", ";
          add_value buffer v)
        items;
      Buffer.add_char buffer ']'
  | Obj fields ->
      Buffer.add_char buffer '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buffer ", ";
          add_escaped buffer k;
          Buffer.add_string buffer ": ";
          add_value buffer v)
        fields;
      Buffer.add_char buffer '}'

let to_string v =
  let buffer = Buffer.create 64 in
  add_value buffer v;
  Buffer.contents buffer


type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let print_num n =
  if Float.is_integer n && Float.abs n < 1e15 then Printf.sprintf "%.0f" n
  else Printf.sprintf "%.17g" n

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  let rec go indent t =
    let pad n = if pretty then Buffer.add_string buf (String.make (2 * n) ' ') in
    let newline () = if pretty then Buffer.add_char buf '\n' in
    match t with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num n -> Buffer.add_string buf (print_num n)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        newline ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              newline ()
            end;
            pad (indent + 1);
            go (indent + 1) item)
          items;
        newline ();
        pad indent;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        newline ();
        List.iteri
          (fun i (k, v) ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              newline ()
            end;
            pad (indent + 1);
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            if pretty then Buffer.add_char buf ' ';
            go (indent + 1) v)
          fields;
        newline ();
        pad indent;
        Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

(* Recursive-descent parser. *)
type parser_state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected %c" c)

let parse_literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st ("expected " ^ word)

let parse_string_body st =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
        | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
        | Some 'u' ->
            advance st;
            let read_hex4 () =
              if st.pos + 4 > String.length st.src then fail st "bad \\u escape";
              let hex = String.sub st.src st.pos 4 in
              let is_hex c =
                (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
              in
              if not (String.for_all is_hex hex) then fail st "bad \\u escape";
              st.pos <- st.pos + 4;
              int_of_string ("0x" ^ hex)
            in
            let code = read_hex4 () in
            let cp =
              if code >= 0xD800 && code <= 0xDBFF then begin
                (* High surrogate: a low surrogate must follow to form one
                   astral code point. *)
                if
                  st.pos + 2 <= String.length st.src
                  && st.src.[st.pos] = '\\'
                  && st.src.[st.pos + 1] = 'u'
                then begin
                  st.pos <- st.pos + 2;
                  let low = read_hex4 () in
                  if low < 0xDC00 || low > 0xDFFF then fail st "invalid low surrogate";
                  0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                end
                else fail st "lone high surrogate"
              end
              else if code >= 0xDC00 && code <= 0xDFFF then fail st "lone low surrogate"
              else code
            in
            Buffer.add_utf_8_uchar buf (Uchar.of_int cp);
            go ()
        | _ -> fail st "bad escape")
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  let rec go () =
    match peek st with
    | Some c when is_num_char c ->
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with Some f -> f | None -> fail st "bad number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> parse_literal st "null" Null
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some '"' ->
      advance st;
      Str (parse_string_body st)
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let items = ref [ parse_value st ] in
        skip_ws st;
        while peek st = Some ',' do
          advance st;
          items := parse_value st :: !items;
          skip_ws st
        done;
        expect st ']';
        List (List.rev !items)
      end
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let field () =
          skip_ws st;
          expect st '"';
          let k = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws st;
        while peek st = Some ',' do
          advance st;
          fields := field () :: !fields;
          skip_ws st
        done;
        expect st '}';
        Obj (List.rev !fields)
      end
  | Some _ -> Num (parse_number st)

let of_string src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length src then fail st "trailing input";
  v

let load path = of_string (In_channel.with_open_bin path In_channel.input_all)

let save path t =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (to_string ~pretty:true t);
      Out_channel.output_char oc '\n')

let member key = function
  | Obj fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | _ -> raise (Parse_error (Printf.sprintf "member %S of non-object" key))

let to_float = function
  | Num n -> n
  | _ -> raise (Parse_error "expected number")

let to_int v =
  let f = to_float v in
  if Float.is_finite f then int_of_float f else raise (Parse_error "expected integer")
let to_bool = function Bool b -> b | _ -> raise (Parse_error "expected bool")
let to_str = function Str s -> s | _ -> raise (Parse_error "expected string")
let to_list = function List l -> l | _ -> raise (Parse_error "expected list")

let int i = Num (float_of_int i)
let pair fa fb (a, b) = List [ fa a; fb b ]
let list f xs = List (List.map f xs)

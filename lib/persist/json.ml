type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ----- emission ----- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* 17 significant digits round-trip every finite IEEE double exactly
   through [float_of_string], which is what lets replayed records
   reproduce bit-identical scores.  Non-finite floats have no JSON
   representation and are a caller bug. *)
let float_repr f =
  if not (Float.is_finite f) then
    invalid_arg "Persist.Json: non-finite float has no JSON representation";
  if Float.is_integer f && abs_float f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.17g" f in
    (* Integral floats in [1e15, 1e17) render without '.' or 'e' and
       would replay as Int; keep the float marker so the constructor
       round-trips, not just the value. *)
    if String.contains s '.' || String.contains s 'e' || String.contains s 'E'
    then s
    else s ^ ".0"

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (key, value) ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf (String key);
        Buffer.add_char buf ':';
        emit buf value)
      fields;
    Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  emit buf t;
  Buffer.contents buf

(* Scalars and empty containers render exactly as in [emit]; only
   non-empty containers break across lines. *)
let rec emit_pretty buf ~indent ~level v =
  let pad n = Buffer.add_string buf (String.make (indent * n) ' ') in
  let block opening closing emit_item items =
    Buffer.add_char buf opening;
    List.iteri
      (fun i item ->
        Buffer.add_string buf (if i > 0 then ",\n" else "\n");
        pad (level + 1);
        emit_item item)
      items;
    Buffer.add_char buf '\n';
    pad level;
    Buffer.add_char buf closing
  in
  match v with
  | Null | Bool _ | Int _ | Float _ | String _ | List [] | Obj [] -> emit buf v
  | List items -> block '[' ']' (emit_pretty buf ~indent ~level:(level + 1)) items
  | Obj fields ->
    block '{' '}'
      (fun (key, value) ->
        emit buf (String key);
        Buffer.add_string buf ": ";
        emit_pretty buf ~indent ~level:(level + 1) value)
      fields

let to_string_pretty ?(indent = 2) t =
  let buf = Buffer.create 512 in
  emit_pretty buf ~indent ~level:0 t;
  Buffer.contents buf

(* ----- parsing ----- *)

exception Parse_error of string

type state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at byte %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && (match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some got when got = c -> st.pos <- st.pos + 1
  | Some got -> fail st (Printf.sprintf "expected %C, got %C" c got)
  | None -> fail st (Printf.sprintf "expected %C, got end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "bad \\u escape"

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.src then fail st "unterminated string";
    let c = st.src.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' ->
      (if st.pos >= String.length st.src then fail st "unterminated escape";
       let e = st.src.[st.pos] in
       st.pos <- st.pos + 1;
       match e with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'u' ->
         if st.pos + 4 > String.length st.src then fail st "short \\u escape";
         let v =
           (hex_digit st st.src.[st.pos] lsl 12)
           lor (hex_digit st st.src.[st.pos + 1] lsl 8)
           lor (hex_digit st st.src.[st.pos + 2] lsl 4)
           lor hex_digit st st.src.[st.pos + 3]
         in
         st.pos <- st.pos + 4;
         (* We only ever emit \u for C0 controls; decode the basic
            multilingual plane as UTF-8 so foreign files survive too. *)
         if v < 0x80 then Buffer.add_char buf (Char.chr v)
         else if v < 0x800 then begin
           Buffer.add_char buf (Char.chr (0xC0 lor (v lsr 6)));
           Buffer.add_char buf (Char.chr (0x80 lor (v land 0x3F)))
         end
         else begin
           Buffer.add_char buf (Char.chr (0xE0 lor (v lsr 12)));
           Buffer.add_char buf (Char.chr (0x80 lor ((v lsr 6) land 0x3F)));
           Buffer.add_char buf (Char.chr (0x80 lor (v land 0x3F)))
         end
       | _ -> fail st "bad escape");
      go ()
    | c -> Buffer.add_char buf c; go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_number_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.src && is_number_char st.src.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  let text = String.sub st.src start (st.pos - start) in
  if text = "" then fail st "expected a number";
  let is_float =
    String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text
  in
  if is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail st (Printf.sprintf "bad float %S" text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      (* Integer overflow: fall back to float rather than failing. *)
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail st (Printf.sprintf "bad number %S" text))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      List []
    end
    else begin
      let items = ref [] in
      let rec go () =
        items := parse_value st :: !items;
        skip_ws st;
        match peek st with
        | Some ',' -> st.pos <- st.pos + 1; go ()
        | Some ']' -> st.pos <- st.pos + 1
        | _ -> fail st "expected ',' or ']'"
      in
      go ();
      List (List.rev !items)
    end
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec go () =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let value = parse_value st in
        fields := (key, value) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' -> st.pos <- st.pos + 1; go ()
        | Some '}' -> st.pos <- st.pos + 1
        | _ -> fail st "expected ',' or '}'"
      in
      go ();
      Obj (List.rev !fields)
    end
  | Some _ -> parse_number st

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* ----- accessors ----- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None

let int_field j key = Option.bind (member key j) to_int
let float_field j key = Option.bind (member key j) to_float
let string_field j key = Option.bind (member key j) to_string_opt

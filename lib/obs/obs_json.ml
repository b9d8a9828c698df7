(* Minimal JSON: serialization for the sinks, parsing for validation
   and trace analytics.  Lives in its own compilation unit so both the
   emit side ([Obs]) and the read side ([Analyze]) can depend on it
   without a module cycle; users see it as [Obs.Json]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Shortest decimal form that parses back to exactly the same float, so
   [parse (to_string t) = Ok t] holds for every finite number. *)
let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then begin
    let compact = Printf.sprintf "%.6g" f in
    if float_of_string compact = f then compact
    else
      let wide = Printf.sprintf "%.15g" f in
      if float_of_string wide = f then wide else Printf.sprintf "%.17g" f
  end
  else "0"

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num f -> float_str f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr vs -> "[" ^ String.concat ", " (List.map to_string vs) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) fields)
    ^ "}"

exception Parse_error of string

(* Recursive-descent parser, sufficient for the files this library
   writes (and for smoke-testing arbitrary trace files). *)
let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> error (Printf.sprintf "expected '%c'" c)
  in
  (* the run of letters at [pos] (up to 24) must be [word]; a mismatch
     names the run, so a text file reads as what it is, not as a broken
     literal *)
  let literal word v =
    let stop = ref !pos in
    while
      !stop < n && !stop - !pos < 24
      && match s.[!stop] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false
    do
      incr stop
    done;
    let found = String.sub s !pos (!stop - !pos) in
    if found <> word then error (Printf.sprintf "invalid literal %S" found);
    pos := !stop;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then error "unterminated escape";
         match s.[!pos] with
         | '"' -> Buffer.add_char b '"'; advance ()
         | '\\' -> Buffer.add_char b '\\'; advance ()
         | '/' -> Buffer.add_char b '/'; advance ()
         | 'b' -> Buffer.add_char b '\b'; advance ()
         | 'f' -> Buffer.add_char b '\012'; advance ()
         | 'n' -> Buffer.add_char b '\n'; advance ()
         | 'r' -> Buffer.add_char b '\r'; advance ()
         | 't' -> Buffer.add_char b '\t'; advance ()
         | 'u' ->
           advance ();
           if !pos + 4 > n then error "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           let code =
             try int_of_string ("0x" ^ hex)
             with _ -> error "bad \\u escape"
           in
           (* encode the BMP codepoint as UTF-8 *)
           if code < 0x80 then Buffer.add_char b (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
           end
         | c -> error (Printf.sprintf "bad escape '\\%c'" c));
        go ()
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    let sub = String.sub s start (!pos - start) in
    match float_of_string_opt sub with
    | Some f -> Num f
    | None -> error ("bad number " ^ sub)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> error "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> error "expected ',' or ']'"
        in
        Arr (elems [])
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let parse_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> parse contents
  | exception Sys_error msg -> Error msg

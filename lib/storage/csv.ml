exception Csv_error of string
exception Row_error of string

(* The scanner proper, over any character source with one slot of pushback
   (all the grammar needs: the "" escape and the CRLF pair are the only
   two-character lookaheads).  [emit] receives each completed row; it may
   raise to abort.  Offsets in errors count consumed characters, matching
   the historical string-indexed messages. *)
let scan ~next ~emit =
  let peeked = ref None in
  let pos = ref 0 in
  let getc () =
    match !peeked with
    | Some _ as r ->
        peeked := None;
        incr pos;
        r
    | None -> (
        match next () with
        | Some _ as r ->
            incr pos;
            r
        | None -> None)
  in
  let peekc () =
    match !peeked with
    | Some _ as r -> r
    | None -> (
        match next () with
        | Some c ->
            peeked := Some c;
            Some c
        | None -> None)
  in
  let fail i msg = raise (Csv_error (Printf.sprintf "offset %d: %s" i msg)) in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_row () =
    flush_field ();
    emit (List.rev !fields);
    fields := []
  in
  (* Tracks whether the current (possibly empty) field has consumed any
     character yet — needed to drop a trailing newline without emitting a
     phantom empty row. *)
  let row_started = ref false in
  let rec loop () =
    match getc () with
    | None -> ()
    | Some '"' ->
        if Buffer.length buf > 0 then fail (!pos - 1) "quote inside unquoted field";
        (* Quoted field: scan to the closing quote, honoring "" escapes. *)
        let rec quoted () =
          match getc () with
          | None -> fail !pos "unterminated quoted field"
          | Some '"' -> (
              match peekc () with
              | Some '"' ->
                  ignore (getc ());
                  Buffer.add_char buf '"';
                  quoted ()
              | _ -> ())
          | Some c ->
              Buffer.add_char buf c;
              quoted ()
        in
        quoted ();
        row_started := true;
        loop ()
    | Some ',' ->
        flush_field ();
        row_started := true;
        loop ()
    | Some (('\n' | '\r') as c) ->
        if !row_started || Buffer.length buf > 0 then flush_row ();
        row_started := false;
        (* Swallow a CRLF pair. *)
        (if c = '\r' then
           match peekc () with Some '\n' -> ignore (getc ()) | _ -> ());
        loop ()
    | Some c ->
        Buffer.add_char buf c;
        row_started := true;
        loop ()
  in
  loop ();
  if !row_started || Buffer.length buf > 0 then flush_row ()

let parse input =
  let n = String.length input in
  let i = ref 0 in
  let next () =
    if !i >= n then None
    else begin
      let c = input.[!i] in
      incr i;
      Some c
    end
  in
  let rows = ref [] in
  match scan ~next ~emit:(fun row -> rows := row :: !rows) with
  | () -> Ok (List.rev !rows)
  | exception Csv_error msg -> Error msg

let fold_rows ic ~init f =
  let next () =
    match input_char ic with c -> Some c | exception End_of_file -> None
  in
  let acc = ref init in
  let emit row =
    match f !acc row with
    | Ok a -> acc := a
    | Error msg -> raise (Row_error msg)
  in
  match scan ~next ~emit with
  | () -> Ok !acc
  | exception Csv_error msg -> Error msg
  | exception Row_error msg -> Error msg

let needs_quoting field =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') field

let render rows =
  let buf = Buffer.create 256 in
  List.iter
    (fun fields ->
      List.iteri
        (fun i field ->
          if i > 0 then Buffer.add_char buf ',';
          if needs_quoting field then begin
            Buffer.add_char buf '"';
            String.iter
              (fun c ->
                if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
              field;
            Buffer.add_char buf '"'
          end
          else Buffer.add_string buf field)
        fields;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let parse_date s =
  match String.split_on_char '-' s with
  | [ y; m; d ] -> (
      match (int_of_string_opt y, int_of_string_opt m, int_of_string_opt d) with
      | Some year, Some month, Some day -> Value.checked_date ~year ~month ~day
      | _ -> Error "not a YYYY-MM-DD date")
  | _ -> Error "not a YYYY-MM-DD date"

let tuple_of_fields schema fields =
  let columns = Schema.columns schema in
  if List.length fields <> List.length columns then
    Error
      (Printf.sprintf "expected %d fields, got %d" (List.length columns)
         (List.length fields))
  else begin
    let converted =
      List.map2
        (fun { Schema.name; ty } field ->
          if String.equal field "" then Ok Value.Null
          else
            match ty with
            | Value.T_int -> (
                match int_of_string_opt field with
                | Some i -> Ok (Value.Int i)
                | None -> Error (Printf.sprintf "column %s: %S is not an integer" name field))
            | Value.T_float -> (
                match float_of_string_opt field with
                | Some f -> Ok (Value.Float f)
                | None -> Error (Printf.sprintf "column %s: %S is not a float" name field))
            | Value.T_bool -> (
                match String.lowercase_ascii field with
                | "true" | "t" | "1" -> Ok (Value.Bool true)
                | "false" | "f" | "0" -> Ok (Value.Bool false)
                | _ -> Error (Printf.sprintf "column %s: %S is not a boolean" name field))
            | Value.T_date -> (
                match parse_date field with
                | Ok d -> Ok d
                | Error msg -> Error (Printf.sprintf "column %s: %S: %s" name field msg))
            | Value.T_string -> Ok (Value.String field))
        columns fields
    in
    match List.find_opt Result.is_error converted with
    | Some (Error msg) -> Error msg
    | _ -> Ok (Array.of_list (List.map Result.get_ok converted))
  end

let fields_of_tuple tuple =
  Array.to_list
    (Array.map
       (function
         | Value.Null -> ""
         | Value.String s -> s
         | Value.Bool b -> string_of_bool b
         | Value.Int i -> string_of_int i
         | Value.Float f -> Printf.sprintf "%.17g" f
         | Value.Date _ as d -> Value.to_string d)
       tuple)

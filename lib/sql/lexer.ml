let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let error = ref None in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  let fail msg = error := Some (Printf.sprintf "at offset %d: %s" !i msg) in
  while !error = None && !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && input.[!i + 1] = '-' then begin
      (* Line comment. *)
      while !i < n && input.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && input.[!i + 1] = '*' then begin
      (* Block comment; /*+ ... */ is an optimizer hint. *)
      let is_hint = !i + 2 < n && input.[!i + 2] = '+' in
      let start = !i + if is_hint then 3 else 2 in
      let rec find_close j =
        if j + 1 >= n then None
        else if input.[j] = '*' && input.[j + 1] = '/' then Some j
        else find_close (j + 1)
      in
      match find_close start with
      | None -> fail "unterminated comment"
      | Some close ->
          if is_hint then emit (Token.Hint (String.sub input start (close - start)));
          i := close + 2
    end
    else if c = '\'' then begin
      (* String literal; '' escapes a quote. *)
      let buf = Buffer.create 16 in
      let rec scan j =
        if j >= n then (fail "unterminated string literal"; j)
        else if input.[j] = '\'' then
          if j + 1 < n && input.[j + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            scan (j + 2)
          end
          else j + 1
        else begin
          Buffer.add_char buf input.[j];
          scan (j + 1)
        end
      in
      let next = scan (!i + 1) in
      if !error = None then emit (Token.String_lit (Buffer.contents buf));
      i := next
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit input.[!i] do
        incr i
      done;
      let is_float =
        !i < n && input.[!i] = '.' && !i + 1 < n && is_digit input.[!i + 1]
      in
      if is_float then begin
        incr i;
        while !i < n && is_digit input.[!i] do
          incr i
        done;
        emit (Token.Float_lit (float_of_string (String.sub input start (!i - start))))
      end
      else
        match int_of_string_opt (String.sub input start (!i - start)) with
        | Some v -> emit (Token.Int_lit v)
        | None ->
            (* report the offset where the literal starts *)
            i := start;
            fail "integer literal out of range"
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        incr i
      done;
      emit (Token.Ident (String.sub input start (!i - start)))
    end
    else begin
      let two = if !i + 1 < n then String.sub input !i 2 else "" in
      match two with
      | "<=" | ">=" | "<>" | "!=" ->
          emit (Token.Symbol (if two = "!=" then "<>" else two));
          i := !i + 2
      | _ -> (
          match c with
          | '(' | ')' | ',' | '.' | '*' | '=' | '<' | '>' | '+' | '-' | '/' | ';' ->
              emit (Token.Symbol (String.make 1 c));
              incr i
          | _ -> fail (Printf.sprintf "unexpected character %C" c))
    end
  done;
  match !error with
  | Some msg -> Error msg
  | None -> Ok (List.rev (Token.Eof :: !tokens))

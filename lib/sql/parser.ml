(* Recursive descent over the token array with a mutable cursor.  A parse
   error raises [Parse_error], converted to [Error] at the entry point. *)

exception Parse_error of string

type state = { tokens : Token.t array; mutable pos : int; mutable hints : string list }

let fail state msg =
  raise
    (Parse_error
       (Format.asprintf "%s, found %a (token %d)" msg Token.pp state.tokens.(state.pos)
          state.pos))

(* Hints can appear anywhere a token can; collect them transparently. *)
let rec peek state =
  match state.tokens.(state.pos) with
  | Token.Hint h ->
      state.hints <- state.hints @ [ h ];
      state.pos <- state.pos + 1;
      peek state
  | t -> t

let advance state = state.pos <- state.pos + 1

let next state =
  let t = peek state in
  advance state;
  t

let accept_keyword state kw =
  if Token.is_keyword (peek state) kw then begin
    advance state;
    true
  end
  else false

let expect_keyword state kw =
  if not (accept_keyword state kw) then fail state (Printf.sprintf "expected %s" kw)

let accept_symbol state s =
  match peek state with
  | Token.Symbol s' when String.equal s s' ->
      advance state;
      true
  | _ -> false

let expect_symbol state s =
  if not (accept_symbol state s) then fail state (Printf.sprintf "expected %S" s)

let expect_ident state what =
  match next state with
  | Token.Ident name -> name
  | _ ->
      state.pos <- state.pos - 1;
      fail state (Printf.sprintf "expected %s" what)

let keywords =
  [ "select"; "from"; "where"; "group"; "by"; "and"; "or"; "not"; "between"; "like";
    "as"; "sum"; "avg"; "min"; "max"; "count"; "date"; "order"; "asc"; "desc"; "limit";
    "in"; "exists" ]

let is_reserved name = List.mem (String.lowercase_ascii name) keywords

let parse_date_string s =
  (* 'YYYY-MM-DD' or 'MM/DD/YY[YY]' (the paper's templates use the latter). *)
  let to_int part = int_of_string_opt (String.trim part) in
  match String.split_on_char '-' s with
  | [ y; m; d ] -> (
      match (to_int y, to_int m, to_int d) with
      | Some y, Some m, Some d -> Some (y, m, d)
      | _ -> None)
  | _ -> (
      match String.split_on_char '/' s with
      | [ m; d; y ] -> (
          match (to_int y, to_int m, to_int d) with
          | Some y, Some m, Some d ->
              let y = if y < 100 then if y >= 70 then 1900 + y else 2000 + y else y in
              Some (y, m, d)
          | _ -> None)
      | _ -> None)

let parse_column state first =
  if accept_symbol state "." then
    let name = expect_ident state "column name after '.'" in
    { Ast.table = Some first; name }
  else { Ast.table = None; name = first }

let rec parse_expr state = parse_additive state

and parse_additive state =
  let lhs = ref (parse_multiplicative state) in
  let continue = ref true in
  while !continue do
    if accept_symbol state "+" then lhs := Ast.Binop (Ast.Add, !lhs, parse_multiplicative state)
    else if accept_symbol state "-" then lhs := Ast.Binop (Ast.Sub, !lhs, parse_multiplicative state)
    else continue := false
  done;
  !lhs

and parse_multiplicative state =
  let lhs = ref (parse_primary state) in
  let continue = ref true in
  while !continue do
    if accept_symbol state "*" then lhs := Ast.Binop (Ast.Mul, !lhs, parse_primary state)
    else if accept_symbol state "/" then lhs := Ast.Binop (Ast.Div, !lhs, parse_primary state)
    else continue := false
  done;
  !lhs

and parse_primary state =
  match next state with
  | Token.Int_lit i -> Ast.Int_lit i
  | Token.Float_lit f -> Ast.Float_lit f
  | Token.String_lit s -> Ast.String_lit s
  | Token.Symbol "(" ->
      let e = parse_expr state in
      expect_symbol state ")";
      e
  | Token.Symbol "-" -> (
      match next state with
      | Token.Int_lit i -> Ast.Int_lit (-i)
      | Token.Float_lit f -> Ast.Float_lit (-.f)
      | _ ->
          state.pos <- state.pos - 1;
          fail state "expected numeric literal after unary minus")
  | Token.Ident name when String.lowercase_ascii name = "date" -> (
      match next state with
      | Token.String_lit s -> (
          match parse_date_string s with
          | Some (y, m, d) -> (
              match Rq_storage.Value.checked_date ~year:y ~month:m ~day:d with
              | Ok _ -> Ast.Date_lit (y, m, d)
              | Error msg ->
                  state.pos <- state.pos - 1;
                  fail state (Printf.sprintf "invalid date literal '%s': %s" s msg))
          | None ->
              state.pos <- state.pos - 1;
              fail state "malformed date literal")
      | _ ->
          state.pos <- state.pos - 1;
          fail state "expected string after DATE")
  | Token.Ident name when not (is_reserved name) -> Ast.Column (parse_column state name)
  | _ ->
      state.pos <- state.pos - 1;
      fail state "expected expression"

let cmp_of_symbol = function
  | "=" -> Some Ast.Eq
  | "<>" -> Some Ast.Ne
  | "<" -> Some Ast.Lt
  | "<=" -> Some Ast.Le
  | ">" -> Some Ast.Gt
  | ">=" -> Some Ast.Ge
  | _ -> None

let parse_agg_kind name =
  match String.lowercase_ascii name with
  | "sum" -> Some Ast.Sum
  | "avg" -> Some Ast.Avg
  | "min" -> Some Ast.Min
  | "max" -> Some Ast.Max
  | "count" -> Some Ast.Count_star
  | _ -> None

(* Is the cursor looking at "( select ..."?  Distinguishes a scalar
   subquery on the right of a comparison from arithmetic grouping. *)
let at_subquery state =
  Token.equal (peek state) (Token.Symbol "(")
  && Token.is_keyword state.tokens.(state.pos + 1) "select"

let rec parse_condition state = parse_or state

and parse_or state =
  let first = parse_and state in
  let rec loop acc =
    if accept_keyword state "or" then loop (parse_and state :: acc) else List.rev acc
  in
  match loop [ first ] with [ single ] -> single | several -> Ast.Or several

and parse_and state =
  let first = parse_atom state in
  let rec loop acc =
    if accept_keyword state "and" then loop (parse_atom state :: acc) else List.rev acc
  in
  match loop [ first ] with [ single ] -> single | several -> Ast.And several

and parse_atom state =
  if accept_keyword state "not" then Ast.Not (parse_atom state)
  else if accept_keyword state "exists" then Ast.Exists (parse_subquery state)
  else if
    (* A parenthesis opens either a nested condition or an arithmetic
       grouping; try the condition first and fall back on failure. *)
    Token.equal (peek state) (Token.Symbol "(")
  then begin
    let saved = state.pos in
    advance state;
    match
      let c = parse_condition state in
      expect_symbol state ")";
      c
    with
    | c -> c
    | exception Parse_error _ ->
        state.pos <- saved;
        parse_comparison state
  end
  else parse_comparison state

and parse_comparison state =
  let lhs = parse_expr state in
  if accept_keyword state "between" then begin
    let lo = parse_expr state in
    expect_keyword state "and";
    let hi = parse_expr state in
    Ast.Between (lhs, lo, hi)
  end
  else if accept_keyword state "like" then begin
    match next state with
    | Token.String_lit pattern -> Ast.Like (lhs, pattern)
    | _ ->
        state.pos <- state.pos - 1;
        fail state "expected pattern string after LIKE"
  end
  else if accept_keyword state "in" then Ast.In_subquery (lhs, parse_subquery state)
  else begin
    match peek state with
    | Token.Symbol s when cmp_of_symbol s <> None ->
        advance state;
        let op = Option.get (cmp_of_symbol s) in
        if at_subquery state then Ast.Cmp_scalar (op, lhs, parse_subquery state)
        else Ast.Cmp (op, lhs, parse_expr state)
    | _ -> fail state "expected comparison operator"
  end

(* "( SELECT item FROM table [WHERE cond] )" — single table, no nesting
   beyond the condition's own subqueries. *)
and parse_subquery state =
  expect_symbol state "(";
  expect_keyword state "select";
  let sub_item =
    if accept_symbol state "*" then Ast.Sub_star
    else begin
      match peek state with
      | Token.Ident name
        when parse_agg_kind name <> None
             && Token.equal state.tokens.(state.pos + 1) (Token.Symbol "(") ->
          advance state;
          advance state;
          let kind = Option.get (parse_agg_kind name) in
          let arg =
            if accept_symbol state "*" then begin
              if kind <> Ast.Count_star then fail state "only COUNT accepts *";
              None
            end
            else Some (parse_expr state)
          in
          expect_symbol state ")";
          let kind = if arg = None then Ast.Count_star else kind in
          Ast.Sub_agg (kind, arg)
      | _ ->
          let first = expect_ident state "subquery column" in
          Ast.Sub_column (parse_column state first)
    end
  in
  expect_keyword state "from";
  let sub_from = expect_ident state "subquery table name" in
  let sub_where =
    if accept_keyword state "where" then Some (parse_condition state) else None
  in
  expect_symbol state ")";
  { Ast.sub_item; sub_from; sub_where }

let parse_alias state =
  if accept_keyword state "as" then Some (expect_ident state "alias") else None

let parse_select_item state =
  if accept_symbol state "*" then Ast.Star
  else begin
    match peek state with
    | Token.Ident name when parse_agg_kind name <> None
                            && Token.equal state.tokens.(state.pos + 1) (Token.Symbol "(") ->
        advance state;
        advance state;
        let kind = Option.get (parse_agg_kind name) in
        let arg =
          if accept_symbol state "*" then begin
            if kind <> Ast.Count_star then fail state "only COUNT accepts *";
            None
          end
          else Some (parse_expr state)
        in
        expect_symbol state ")";
        let kind = if arg = None then Ast.Count_star else kind in
        Ast.Agg_item (kind, arg, parse_alias state)
    | _ ->
        let e = parse_expr state in
        Ast.Expr_item (e, parse_alias state)
  end

let parse_statement state =
  expect_keyword state "select";
  let rec select_list acc =
    let item = parse_select_item state in
    if accept_symbol state "," then select_list (item :: acc) else List.rev (item :: acc)
  in
  let select = select_list [] in
  expect_keyword state "from";
  let rec table_list acc =
    let t = expect_ident state "table name" in
    if accept_symbol state "," then table_list (t :: acc) else List.rev (t :: acc)
  in
  let from = table_list [] in
  let where = if accept_keyword state "where" then Some (parse_condition state) else None in
  let group_by =
    if accept_keyword state "group" then begin
      expect_keyword state "by";
      let rec columns acc =
        let first = expect_ident state "grouping column" in
        let col = parse_column state first in
        if accept_symbol state "," then columns (col :: acc) else List.rev (col :: acc)
      in
      columns []
    end
    else []
  in
  let order_by =
    if accept_keyword state "order" then begin
      expect_keyword state "by";
      let rec items acc =
        let first = expect_ident state "ordering column" in
        let order_column = parse_column state first in
        let desc =
          if accept_keyword state "desc" then true
          else begin
            ignore (accept_keyword state "asc");
            false
          end
        in
        let item = { Ast.order_column; desc } in
        if accept_symbol state "," then items (item :: acc) else List.rev (item :: acc)
      in
      items []
    end
    else []
  in
  let limit =
    if accept_keyword state "limit" then begin
      match next state with
      | Token.Int_lit n when n >= 0 -> Some n
      | _ ->
          state.pos <- state.pos - 1;
          fail state "expected a non-negative integer after LIMIT"
    end
    else None
  in
  ignore (accept_symbol state ";");
  (match peek state with
  | Token.Eof -> ()
  | _ -> fail state "trailing input after statement");
  { Ast.select; from; where; group_by; order_by; limit; hints = state.hints }

let parse input =
  match Lexer.tokenize input with
  | Error msg -> Error ("lex error: " ^ msg)
  | Ok tokens -> (
      let state = { tokens = Array.of_list tokens; pos = 0; hints = [] } in
      match parse_statement state with
      | statement -> Ok statement
      | exception Parse_error msg -> Error ("parse error: " ^ msg))

open Rq_storage

type t =
  | Col of string
  | Const of Value.t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Add_days of t * int

let col name = Col name
let int i = Const (Value.Int i)
let float f = Const (Value.Float f)
let str s = Const (Value.String s)
let date ~year ~month ~day = Const (Value.date_of_ymd ~year ~month ~day)

let columns expr =
  let rec go acc = function
    | Col name -> if List.mem name acc then acc else name :: acc
    | Const _ -> acc
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> go (go acc a) b
    | Add_days (a, _) -> go acc a
  in
  List.rev (go [] expr)

type compiled = Relation.tuple -> Value.t

let arith op a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> (
      match op with
      | `Add -> Value.Int (x + y)
      | `Sub -> Value.Int (x - y)
      | `Mul -> Value.Int (x * y)
      | `Div -> if y = 0 then Value.Null else Value.Int (x / y))
  | a, b ->
      let x = Value.to_float a and y = Value.to_float b in
      (match op with
      | `Add -> Value.Float (x +. y)
      | `Sub -> Value.Float (x -. y)
      | `Mul -> Value.Float (x *. y)
      | `Div -> if y = 0.0 then Value.Null else Value.Float (x /. y))

let rec const_value = function
  | Col _ -> None
  | Const v -> Some v
  | Add (a, b) -> const_binop `Add a b
  | Sub (a, b) -> const_binop `Sub a b
  | Mul (a, b) -> const_binop `Mul a b
  | Div (a, b) -> const_binop `Div a b
  | Add_days (a, days) -> (
      match const_value a with
      | Some Value.Null -> Some Value.Null
      | Some v -> Some (Value.add_days v days)
      | None -> None)

and const_binop op a b =
  match (const_value a, const_value b) with
  | Some va, Some vb -> Some (arith op va vb)
  | _ -> None

let rec compile schema = function
  | Col name ->
      let pos = Schema.index_of schema name in
      fun tuple -> tuple.(pos)
  | Const v -> fun _ -> v
  | Add (a, b) -> compile_binop schema `Add a b
  | Sub (a, b) -> compile_binop schema `Sub a b
  | Mul (a, b) -> compile_binop schema `Mul a b
  | Div (a, b) -> compile_binop schema `Div a b
  | Add_days (a, days) ->
      let fa = compile schema a in
      fun tuple -> (
        match fa tuple with
        | Value.Null -> Value.Null
        | v -> Value.add_days v days)

and compile_binop schema op a b =
  let fa = compile schema a and fb = compile schema b in
  fun tuple -> arith op (fa tuple) (fb tuple)

let eval schema expr tuple = compile schema expr tuple

(* Columnar compilation: the same tree, but evaluated against a batch's
   column arrays at a physical row index — no tuple is materialized.  Kept
   structurally parallel to [compile] so both engines compute bit-identical
   values (same operations in the same order). *)
type compiled_cols = Value.t array array -> int -> Value.t

let rec compile_cols schema = function
  | Col name ->
      let pos = Schema.index_of schema name in
      fun cols r -> cols.(pos).(r)
  | Const v -> fun _ _ -> v
  | Add (a, b) -> compile_cols_binop schema `Add a b
  | Sub (a, b) -> compile_cols_binop schema `Sub a b
  | Mul (a, b) -> compile_cols_binop schema `Mul a b
  | Div (a, b) -> compile_cols_binop schema `Div a b
  | Add_days (a, days) ->
      let fa = compile_cols schema a in
      fun cols r -> (
        match fa cols r with
        | Value.Null -> Value.Null
        | v -> Value.add_days v days)

and compile_cols_binop schema op a b =
  let fa = compile_cols schema a and fb = compile_cols schema b in
  fun cols r -> arith op (fa cols r) (fb cols r)

(* Canonical one-line rendering for structural keys (evidence memos, plan
   fingerprints).  Unlike [pp], the output never depends on a formatter
   margin: equal expressions render identically everywhere. *)
let rec render = function
  | Col c -> "c:" ^ c
  | Const v -> "v:" ^ Value.to_string v
  | Add (a, b) -> "(+ " ^ render a ^ " " ^ render b ^ ")"
  | Sub (a, b) -> "(- " ^ render a ^ " " ^ render b ^ ")"
  | Mul (a, b) -> "(* " ^ render a ^ " " ^ render b ^ ")"
  | Div (a, b) -> "(/ " ^ render a ^ " " ^ render b ^ ")"
  | Add_days (e, d) -> Printf.sprintf "(+days %s %d)" (render e) d

let rec pp fmt = function
  | Col name -> Format.pp_print_string fmt name
  | Const v -> Value.pp fmt v
  | Add (a, b) -> Format.fprintf fmt "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf fmt "(%a - %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf fmt "(%a * %a)" pp a pp b
  | Div (a, b) -> Format.fprintf fmt "(%a / %a)" pp a pp b
  | Add_days (a, d) -> Format.fprintf fmt "(%a + %d days)" pp a d

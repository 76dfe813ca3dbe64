(** Hand-written SQL lexer.

    Recognizes identifiers, integer/float/string literals, punctuation,
    date literals in strings (left to the binder), [--] line comments,
    [/* ... */] block comments, and optimizer hints [/*+ ... */] — the
    paper's query-hint channel for per-query confidence thresholds. *)

val tokenize : string -> (Token.t list, string) result
(** The token list always ends with [Eof].  Errors report position and the
    offending character, or an integer literal that does not fit an [int]. *)

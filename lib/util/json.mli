(** Minimal JSON: values render on one line; the parser accepts
    nested objects and arrays and RFC 8259 whitespace. *)

type value =
  | S of string
  | N of float
  | B of bool
  | Null
  | O of (string * value) list
  | A of value list

val render : (string * value) list -> string
(** One-line rendering of an object (no trailing newline). *)

val render_value : value -> string

val number : float -> string
(** The number format [render] uses: integral floats print as
    integers, everything else as [%.17g] (bit-exact round-trip). *)

exception Bad

val parse : string -> (string * value) list
(** Parse a string holding exactly one object (surrounding whitespace
    allowed).
    @raise Bad on anything else. *)

val str : (string * value) list -> string -> string option
val num : (string * value) list -> string -> float option
val bool : (string * value) list -> string -> bool option

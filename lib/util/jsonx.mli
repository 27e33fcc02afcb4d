(** Minimal JSON values, printer and parser — enough to serialise Ditto
    profiles (the publicly shareable artefact) without external
    dependencies. Strings are assumed not to need exotic escapes beyond the
    JSON standard set; numbers are printed with enough digits to round-trip
    floats. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string

exception Parse_error of string
val of_string : string -> t
(** Raises {!Parse_error} on malformed input. *)

(** {1 Files} *)

val load : string -> t
(** Parse a whole file. Raises [Sys_error] when it cannot be read and
    {!Parse_error} when it is malformed. *)

val save : string -> t -> unit
(** Write [t] pretty-printed, ending in a newline. The file is closed
    even when the write raises. *)

(** {1 Accessors} (raise [Parse_error] on shape mismatch) *)

val member : string -> t -> t
(** Field of an object; [Null] if absent. *)

val to_float : t -> float
val to_int : t -> int
val to_bool : t -> bool
val to_str : t -> string
val to_list : t -> t list

(** {1 Builders} *)

val int : int -> t
val pair : ('a -> t) -> ('b -> t) -> 'a * 'b -> t
val list : ('a -> t) -> 'a list -> t

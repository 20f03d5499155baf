(** Operations on runtime values: conversions, equality, printing. *)

val list_to_values : Types.value -> Types.value list option
(** Spine of a proper list value, or [None] if improper. *)

val values_to_list : Types.value list -> Types.value
(** Build a fresh proper list. *)

val cons : Types.value -> Types.value -> Types.value

val is_truthy : Types.value -> bool
(** Scheme truth: everything except [#f] is true. *)

val eqv : Types.value -> Types.value -> bool
(** Identity for mutable structures, structural for atoms ([eqv?]). *)

val equal : Types.value -> Types.value -> bool
(** Deep structural equality ([equal?]).  Cycle-free values only. *)

val pp : Format.formatter -> Types.value -> unit
(** [write]-style printing: strings quoted, characters in [#\c] form. *)

val to_string : Types.value -> string

val display_string : Types.value -> string

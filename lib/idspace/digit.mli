(** Base-2^group digit views of d-bit identifiers (digit 1 = the most
    significant group of bits). Used by the base-b geometry extension. *)

val count : bits:int -> group:int -> int
(** Number of digits. @raise Invalid_argument unless [group] divides
    [bits]. *)

val base : group:int -> int

val get : bits:int -> group:int -> int -> int -> int
(** [get ~bits ~group id level] is the digit at [level] (1-based). *)

val set : bits:int -> group:int -> int -> int -> int -> int
(** [set ~bits ~group id level value] replaces one digit. *)

val highest_differing : bits:int -> group:int -> int -> int -> int option
(** Most significant level where two ids differ. *)

val distance : bits:int -> group:int -> int -> int -> int
(** Number of differing digits (base-b Hamming distance). Test hook:
    the reference the tests check base-b hop counts against. *)

val common_prefix : bits:int -> group:int -> int -> int -> int
(** Number of leading digits shared. Test hook: the reference the
    tests check base-b table rows against. *)

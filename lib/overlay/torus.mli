(** CAN as it actually is: a dim-dimensional torus with side s and
    N = s^dim zones. The paper's hypercube geometry (section 3.2) is
    the side = 2 special case; the dimension sweep (A8) explores the
    rest of CAN's design space. *)

type t

val build : dim:int -> side:int -> t
(** @raise Invalid_argument for [dim < 1], [side < 2] or more than 2^24
    nodes. *)

val dim : t -> int
val side : t -> int
val node_count : t -> int

val coordinate : t -> int -> int -> int
(** [coordinate t v i] is the i-th coordinate (0-based dimension). *)

val with_coordinate : t -> int -> int -> int -> int
(** [with_coordinate t v i value] replaces one coordinate. *)

val distance : t -> int -> int -> int
(** L1 torus distance (sum of per-dimension circular distances).
    Test hook: the reference the tests check the torus router's hop
    counts against. *)


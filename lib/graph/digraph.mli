(** Immutable directed graph in compressed-sparse-row form.

    DHT overlays at N = 2^16 with ~16 out-edges per node are stored as
    one flat edge array to keep routing cache-friendly. *)

type t

val of_adjacency : int array array -> t
(** [of_adjacency adj] where [adj.(v)] lists the out-neighbours of [v]. *)

val of_edges : nodes:int -> (int * int) list -> t
(** @raise Invalid_argument on endpoints outside [0, nodes). *)

val of_iter : nodes:int -> degree:(int -> int) -> iter:(int -> (int -> unit) -> unit) -> t
(** [of_iter ~nodes ~degree ~iter] builds the graph from caller-supplied
    per-node iteration, without an intermediate adjacency matrix (used
    to convert flat overlay blocks).
    @raise Invalid_argument if [iter v] visits a number of successors
    other than [degree v], or one outside [0, nodes). *)

val node_count : t -> int
val edge_count : t -> int
val out_degree : t -> int -> int

val iter_successors : t -> int -> (int -> unit) -> unit
val fold_successors : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a
val successors : t -> int -> int array
(** Fresh array of out-neighbours (allocates; prefer the iterators in
    hot paths). *)

(** Absorbing discrete-time Markov chains.

    The paper derives every per-phase failure probability Q(m) by
    inspecting a routing Markov chain (Figs. 4, 5(b), 8). This module
    represents such chains explicitly and solves them exactly, so the
    closed forms can be machine-checked rather than trusted. *)

type t

val create : num_states:int -> start:int -> edges:(int * int * float) list -> t
(** [create ~num_states ~start ~edges] builds a chain from
    [(src, dst, probability)] triples. Zero-probability edges are
    dropped; states without out-edges are absorbing.
    @raise Invalid_argument on malformed input. *)

val validate : ?tolerance:float -> t -> (unit, string) result
(** Checks that every non-absorbing state's out-probability is 1.
    Test hook: the check the tests run on every routing chain the
    library builds. *)

exception Cyclic
(** Raised by the DAG solvers below when the states reachable from the
    start form a cycle. *)

val absorption_probability : t -> into:int -> float
(** Probability of being absorbed in the given absorbing state (DAG
    solver: the paper's G(start, into), from visit probabilities
    computed in topological order). @raise Invalid_argument if [into]
    is not absorbing. *)

val expected_steps_given : t -> into:int -> float
(** [expected_steps_given t ~into] is the expected number of
    transitions conditional on being absorbed in [into] — e.g. the hop
    count of successful routes. [nan] when absorption in [into] has
    probability 0. @raise Invalid_argument if [into] is not absorbing. *)

val absorption_time_distribution : ?max_steps:int -> t -> into:int -> float array
(** Entry t is P(absorbed in [into] after exactly t steps), by forward
    propagation; exact on acyclic chains once [max_steps] (default:
    the state count) covers the longest path. Sums to the absorption
    probability. @raise Invalid_argument if [into] is not absorbing. *)

val absorption_probability_iterative :
  ?tolerance:float -> ?max_sweeps:int -> t -> into:int -> float
(** Gauss-Seidel solver; also handles cyclic chains. Test hook: the
    independent solver the tests check {!absorption_probability}
    against, and the only one for cyclic chains.
    @raise Failure when the sweep budget is exhausted. *)

(** Closed-form data availability under replication — the analytic
    baseline for the simulated storage layer.

    Leslie, "Reliable Data Storage in Distributed Hash Tables"
    (PAPERS.md, cs/0507072) models a key's R replica holders as
    distinct nodes failing i.i.d. with probability [q]. The number of
    surviving replicas is then Binomial(R, 1-q), and every survival /
    quorum question is a binomial tail. These forms validate the
    [Experiments.Storage_sweep] q-sweep: the simulated replica-survival
    column must fall inside the Wilson interval around
    [replica_survival]. *)

val replica_survival : q:float -> r:int -> quorum:int -> float
(** [replica_survival ~q ~r ~quorum] is P(Binomial(r, 1-q) >= quorum):
    the probability that at least [quorum] of a key's [r] distinct
    replica holders survive i.i.d. node failure with probability [q].
    [quorum <= 0] gives 1; [quorum > r] gives 0.
    @raise Invalid_argument if [r < 1] or [q] is outside [0, 1]. *)


(** Connected-component analysis of (possibly failed) overlays.

    Used by the percolation experiment (A1) to contrast routability with
    raw connectivity: a pair can be connected yet unroutable, so
    [pair_connectivity] upper-bounds any geometry's routability. *)

type report = {
  alive_nodes : int;
  component_count : int;  (** components among alive nodes *)
  largest : int;  (** size of the largest component *)
  giant_fraction : float;  (** largest / alive; [nan] with no alive node *)
  pair_connectivity : float;
      (** fraction of ordered alive pairs in the same component; [nan]
          below two alive nodes, which form no pair *)
}

val analyze_iter :
  ?alive:bool array -> nodes:int -> (int -> (int -> unit) -> unit) -> report
(** [analyze_iter ~nodes iter] reports the components of the
    underlying undirected graph over [nodes] nodes whose node [v] has
    the successors [iter v] visits, restricted to the nodes whose
    [alive] entry is true (all nodes by default). The graph is read in
    place, so an overlay table is analysed without copying it. *)

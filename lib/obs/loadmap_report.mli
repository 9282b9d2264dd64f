(** Hot-spot analysis over {!Loadmap} counters: per-kind load
    summaries (mean, max, max/mean congestion ratio, Gini coefficient),
    load CDFs and top-K hottest nodes. Everything is a pure function of
    the counters: no PRNG, no mutation. *)

type summary = {
  nodes : int;
  active_nodes : int;  (** nodes with a non-zero counter *)
  total : int;
  mean : float;  (** total / nodes (all nodes, not just active ones) *)
  max : int;
  congestion : float;
      (** max / mean — 1.0 is perfectly balanced load, N is one node
          absorbing everything; 0.0 by convention when nothing was
          recorded *)
  gini : float;  (** in [0, 1): 0 uniform, -> 1 maximally concentrated *)
}

val summarize : Loadmap.t -> Loadmap.kind -> summary

val pp :
  ?top:int -> ?pp_node:(int -> string) -> Format.formatter -> Loadmap.t -> unit
(** Human-readable dump: one summary line per kind plus its [top]
    hottest nodes. [pp_node] renders a node index (the CLI passes an
    ID-space renderer); default is the decimal index. *)

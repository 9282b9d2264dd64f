type t =
  | Delivered of { hops : int }
  | Dropped of { hops : int; stuck_at : int }

let equal a b =
  match (a, b) with
  | Delivered { hops = h1 }, Delivered { hops = h2 } -> h1 = h2
  | Dropped { hops = h1; stuck_at = s1 }, Dropped { hops = h2; stuck_at = s2 } ->
      h1 = h2 && s1 = s2
  | (Delivered _ | Dropped _), _ -> false

(* Metric label for the outcome-count breakdown. The greedy routers all
   make strict progress in their geometry's distance, so a routing walk
   can never revisit a node: the only drop reason this protocol family
   can produce is a dead end (no alive neighbour making progress). The
   "loop" class exists in the metric schema for completeness — hop-count
   distribution validation needs the full outcome partition — and is
   structurally zero here. *)
let metric_label = function Delivered _ -> "delivered" | Dropped _ -> "dead_end"

let metric_labels = [ "delivered"; "dead_end"; "loop" ]

let pp ppf = function
  | Delivered { hops } -> Fmt.pf ppf "delivered in %d hops" hops
  | Dropped { hops; stuck_at } -> Fmt.pf ppf "dropped after %d hops at node %d" hops stuck_at

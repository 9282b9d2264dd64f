type routing = { chain : Chain.t; success : int; failure : int }

let success_probability r = Chain.absorption_probability r.chain ~into:r.success



let expected_hops_given_success r = Chain.expected_steps_given r.chain ~into:r.success

(* pmf of the hop count of delivered messages: the absorption-time
   distribution into the success state, renormalised by p(h,q). *)
let hop_distribution_given_success r =
  let pmf = Chain.absorption_time_distribution r.chain ~into:r.success in
  let total = Array.fold_left ( +. ) 0.0 pmf in
  if total <= 0.0 then [||] else Array.map (fun p -> p /. total) pmf

let check_common ~fn ~h ~q =
  if h < 1 then invalid_arg (fn ^ ": need at least one hop");
  if not (Numerics.Prob.is_valid q) then invalid_arg (fn ^ ": invalid failure probability")

(* Fig. 4(a): a straight line of states; every hop needs the single
   neighbour correcting the leftmost differing bit. *)
let tree ~h ~q =
  check_common ~fn:"Routing_chains.tree" ~h ~q;
  let success = h and failure = h + 1 in
  let edges = ref [] in
  for i = 0 to h - 1 do
    edges := (i, i + 1, 1.0 -. q) :: (i, failure, q) :: !edges
  done;
  { chain = Chain.create ~num_states:(h + 2) ~start:0 ~edges:!edges; success; failure }

(* Fig. 4(b): at state i (i bits already corrected) there are h - i
   neighbours that make progress; routing fails only when all are dead. *)
let hypercube ~h ~q =
  check_common ~fn:"Routing_chains.hypercube" ~h ~q;
  let success = h and failure = h + 1 in
  let edges = ref [] in
  for i = 0 to h - 1 do
    let all_dead = Numerics.Prob.pow q (h - i) in
    edges := (i, i + 1, 1.0 -. all_dead) :: (i, failure, all_dead) :: !edges
  done;
  { chain = Chain.create ~num_states:(h + 2) ~start:0 ~edges:!edges; success; failure }

(* Fig. 5(b): states (i, k) = i phases advanced, k suboptimal hops taken
   inside the current phase. With m = h - i bits still unresolved and k
   of the low-order ones already corrected: the optimal neighbour is
   alive with probability 1 - q, all m - k useful neighbours are dead
   with probability q^(m-k), and otherwise a lower-order bit is corrected. *)
let xor ~h ~q =
  check_common ~fn:"Routing_chains.xor" ~h ~q;
  let offsets = Array.make (h + 1) 0 in
  for i = 1 to h do
    (* Phase i has h - i substates... computed as running total below. *)
    offsets.(i) <- offsets.(i - 1) + (h - (i - 1))
  done;
  let success = offsets.(h) in
  let failure = success + 1 in
  let edges = ref [] in
  for i = 0 to h - 1 do
    let m = h - i in
    let next_phase = if i + 1 = h then success else offsets.(i + 1) in
    for k = 0 to m - 1 do
      let src = offsets.(i) + k in
      edges := (src, next_phase, 1.0 -. q) :: !edges;
      edges := (src, failure, Numerics.Prob.pow q (m - k)) :: !edges;
      if k < m - 1 then begin
        let suboptimal = q *. Numerics.Prob.at_least_one_of ~q ~count:(m - 1 - k) in
        edges := (src, src + 1, suboptimal) :: !edges
      end
    done
  done;
  {
    chain = Chain.create ~num_states:(failure + 1) ~start:0 ~edges:!edges;
    success;
    failure;
  }

let ring_max_phases = 22

(* Fig. 8(a): like XOR but suboptimal hops do not consume progress
   choices — the failure probability stays q^m and the suboptimal-hop
   probability stays q(1 - q^(m-1)) throughout a phase, and up to
   2^(m-1) suboptimal hops may be taken (after which the next hop
   necessarily completes the phase). *)
let ring ~h ~q =
  check_common ~fn:"Routing_chains.ring" ~h ~q;
  if h > ring_max_phases then
    invalid_arg
      (Printf.sprintf "Routing_chains.ring: phase count %d needs 2^%d states" h (h - 1));
  let offsets = Array.make (h + 1) 0 in
  for i = 1 to h do
    offsets.(i) <- offsets.(i - 1) + (1 lsl (h - i))
  done;
  let success = offsets.(h) in
  let failure = success + 1 in
  let edges = ref [] in
  for i = 0 to h - 1 do
    let m = h - i in
    let substates = 1 lsl (m - 1) in
    let next_phase = if i + 1 = h then success else offsets.(i + 1) in
    let fail = Numerics.Prob.pow q m in
    let suboptimal = q *. Numerics.Prob.at_least_one_of ~q ~count:(m - 1) in
    for k = 0 to substates - 1 do
      let src = offsets.(i) + k in
      edges := (src, next_phase, 1.0 -. q) :: !edges;
      edges := (src, failure, fail) :: !edges;
      if suboptimal > 0.0 then begin
        let subopt_target = if k < substates - 1 then src + 1 else next_phase in
        edges := (src, subopt_target, suboptimal) :: !edges
      end
    done
  done;
  {
    chain = Chain.create ~num_states:(failure + 1) ~start:0 ~edges:!edges;
    success;
    failure;
  }

let symphony_suboptimal_cap ~d ~q = int_of_float (Float.ceil (float_of_int d /. (1.0 -. q)))

(* Fig. 8(b): every hop either lands a shortcut in the desired phase
   (probability k_s/d), loses all k_n + k_s connections (probability
   q^(k_n+k_s)), or takes a suboptimal hop; the number of suboptimal hops
   per phase is capped at ceil(d / (1-q)). *)
let symphony ~d ~phases ~q ~k_n ~k_s =
  check_common ~fn:"Routing_chains.symphony" ~h:phases ~q;
  if d < 1 then invalid_arg "Routing_chains.symphony: d < 1";
  if k_n < 0 || k_s < 1 then invalid_arg "Routing_chains.symphony: need k_s >= 1, k_n >= 0";
  if q >= 1.0 then invalid_arg "Routing_chains.symphony: q must be < 1";
  let advance = float_of_int k_s /. float_of_int d in
  let fail = Numerics.Prob.pow q (k_n + k_s) in
  if advance +. fail > 1.0 then
    invalid_arg "Routing_chains.symphony: k_s/d + q^(k_n+k_s) exceeds 1 (model domain)";
  let suboptimal = 1.0 -. advance -. fail in
  let cap = symphony_suboptimal_cap ~d ~q in
  let per_phase = cap + 1 in
  let success = phases * per_phase in
  let failure = success + 1 in
  let edges = ref [] in
  for i = 0 to phases - 1 do
    let next_phase = if i + 1 = phases then success else (i + 1) * per_phase in
    for j = 0 to cap do
      let src = (i * per_phase) + j in
      edges := (src, next_phase, advance) :: !edges;
      edges := (src, failure, fail) :: !edges;
      if suboptimal > 0.0 then begin
        let subopt_target = if j < cap then src + 1 else next_phase in
        edges := (src, subopt_target, suboptimal) :: !edges
      end
    done
  done;
  {
    chain = Chain.create ~num_states:(failure + 1) ~start:0 ~edges:!edges;
    success;
    failure;
  }

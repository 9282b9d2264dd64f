type t = {
  edges : (int * float) array array;
  start : int;
}

let create ~num_states ~start ~edges =
  if num_states <= 0 then invalid_arg "Chain.create: no states";
  if start < 0 || start >= num_states then invalid_arg "Chain.create: bad start state";
  let buckets = Array.make num_states [] in
  List.iter
    (fun (src, dst, p) ->
      if src < 0 || src >= num_states || dst < 0 || dst >= num_states then
        invalid_arg "Chain.create: edge endpoint outside state range";
      if p < 0.0 || p > 1.0 || Float.is_nan p then
        invalid_arg "Chain.create: edge probability outside [0,1]";
      if p > 0.0 then buckets.(src) <- (dst, p) :: buckets.(src))
    edges;
  { edges = Array.map (fun l -> Array.of_list (List.rev l)) buckets; start }

let num_states t = Array.length t.edges

let is_absorbing t s = Array.length t.edges.(s) = 0

let out_probability t s = Array.fold_left (fun acc (_, p) -> acc +. p) 0.0 t.edges.(s)

let validate ?(tolerance = 1e-9) t =
  let n = num_states t in
  let rec check s =
    if s >= n then Ok ()
    else if is_absorbing t s then check (s + 1)
    else begin
      let total = out_probability t s in
      if Float.abs (total -. 1.0) > tolerance then
        Error
          (Printf.sprintf "state %d: outgoing probability %.12g (expected 1)" s total)
      else check (s + 1)
    end
  in
  check 0

exception Cyclic

(* Topological order of the states reachable from the start, by Kahn's
   algorithm restricted to the reachable subgraph. All routing chains in
   the paper are acyclic (phase and suboptimal-hop counters only grow),
   so this is the normal path; a cycle raises [Cyclic] and callers fall
   back to the iterative solver. *)
let topological_order t =
  let n = num_states t in
  let reachable = Array.make n false in
  let rec mark s =
    if not reachable.(s) then begin
      reachable.(s) <- true;
      Array.iter (fun (dst, _) -> mark dst) t.edges.(s)
    end
  in
  mark t.start;
  let indegree = Array.make n 0 in
  for s = 0 to n - 1 do
    if reachable.(s) then
      Array.iter (fun (dst, _) -> indegree.(dst) <- indegree.(dst) + 1) t.edges.(s)
  done;
  let queue = Queue.create () in
  for s = 0 to n - 1 do
    if reachable.(s) && indegree.(s) = 0 then Queue.add s queue
  done;
  let order = ref [] in
  let emitted = ref 0 in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    order := s :: !order;
    incr emitted;
    Array.iter
      (fun (dst, _) ->
        indegree.(dst) <- indegree.(dst) - 1;
        if indegree.(dst) = 0 then Queue.add dst queue)
      t.edges.(s)
  done;
  let reachable_count = Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 reachable in
  if !emitted <> reachable_count then raise Cyclic;
  List.rev !order

(* Visit probabilities by a single forward pass in topological order:
   f(start) = 1 and each state pushes f(s) * p along its out-edges. On a
   DAG every state is visited at most once, so f(s) is exactly the
   probability that the chain ever visits s — the paper's G(start, s). *)
let visit_probabilities t =
  let order = topological_order t in
  let f = Array.make (num_states t) 0.0 in
  f.(t.start) <- 1.0;
  List.iter
    (fun s ->
      if f.(s) > 0.0 then
        Array.iter (fun (dst, p) -> f.(dst) <- f.(dst) +. (f.(s) *. p)) t.edges.(s))
    order;
  f

let absorption_probability t ~into =
  if not (is_absorbing t into) then
    invalid_arg "Chain.absorption_probability: target state is not absorbing";
  (visit_probabilities t).(into)

(* Probability of eventually reaching [target] from every state, by a
   single pass in reverse topological order. *)
let reach_probabilities t ~target =
  let order = topological_order t in
  let u = Array.make (num_states t) 0.0 in
  u.(target) <- 1.0;
  List.iter
    (fun s ->
      if s <> target then
        u.(s) <- Array.fold_left (fun acc (dst, p) -> acc +. (p *. u.(dst))) 0.0 t.edges.(s))
    (List.rev order);
  u

(* E[steps | absorbed in target]: each non-absorbing state s contributes
   one step along successful walks with probability
   P(visit s) * P(reach target from s); normalising by the absorption
   probability gives the conditional expectation. *)
let expected_steps_given t ~into =
  if not (is_absorbing t into) then
    invalid_arg "Chain.expected_steps_given: target state is not absorbing";
  let f = visit_probabilities t in
  let u = reach_probabilities t ~target:into in
  let p_absorb = f.(into) in
  if p_absorb <= 0.0 then nan
  else begin
    let total = ref 0.0 in
    Array.iteri
      (fun s fs -> if not (is_absorbing t s) then total := !total +. (fs *. u.(s)))
      f;
    !total /. p_absorb
  end

(* Distribution of the number of steps before absorption in [into]:
   step-indexed forward propagation of the state distribution. Entry t
   of the result is P(absorbed in [into] at exactly t steps); a final
   entry may be cut off when [max_steps] is reached, so the vector can
   sum to less than the absorption probability on cyclic chains — on
   the (acyclic) routing chains it is exact once max_steps reaches the
   longest path. *)
let absorption_time_distribution ?max_steps t ~into =
  if not (is_absorbing t into) then
    invalid_arg "Chain.absorption_time_distribution: target state is not absorbing";
  let n = num_states t in
  let max_steps = Option.value max_steps ~default:n in
  let current = Array.make n 0.0 in
  current.(t.start) <- 1.0;
  let pmf = Array.make (max_steps + 1) 0.0 in
  pmf.(0) <- current.(into);
  let live = ref (1.0 -. current.(into)) in
  let step_index = ref 0 in
  while !step_index < max_steps && !live > 1e-15 do
    incr step_index;
    let next = Array.make n 0.0 in
    Array.iteri
      (fun s mass ->
        if mass > 0.0 then
          if is_absorbing t s then ()
          else Array.iter (fun (dst, p) -> next.(dst) <- next.(dst) +. (mass *. p)) t.edges.(s))
      current;
    pmf.(!step_index) <- next.(into);
    Array.blit next 0 current 0 n;
    (* Mass still travelling: everything not yet absorbed anywhere. *)
    live :=
      Array.to_seq current
      |> Seq.fold_lefti (fun acc s mass -> if is_absorbing t s then acc else acc +. mass) 0.0
  done;
  Array.sub pmf 0 (!step_index + 1)

(* Gauss-Seidel on u(s) = sum_t P(s,t) u(t) with u(into) = 1 and other
   absorbing states at 0. Works on cyclic chains; used as a cross-check
   of the DAG solver in tests. *)
let absorption_probability_iterative ?(tolerance = 1e-13) ?(max_sweeps = 100_000) t ~into =
  if not (is_absorbing t into) then
    invalid_arg "Chain.absorption_probability_iterative: target state is not absorbing";
  let n = num_states t in
  let u = Array.make n 0.0 in
  u.(into) <- 1.0;
  let rec sweep i =
    if i >= max_sweeps then failwith "Chain.absorption_probability_iterative: no convergence"
    else begin
      let delta = ref 0.0 in
      for s = n - 1 downto 0 do
        if not (is_absorbing t s) then begin
          let v =
            Array.fold_left (fun acc (dst, p) -> acc +. (p *. u.(dst))) 0.0 t.edges.(s)
          in
          delta := Float.max !delta (Float.abs (v -. u.(s)));
          u.(s) <- v
        end
      done;
      if !delta > tolerance then sweep (i + 1)
    end
  in
  sweep 0;
  u.(t.start)

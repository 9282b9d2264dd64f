type t = {
  geometry : Geometry.t;
  max_phase : d:int -> int;
  log_population : d:int -> h:int -> float;
  phase_failure : d:int -> q:float -> m:int -> float;
}

let check_d d = if d < 1 then invalid_arg "Rcm: identifier length d must be >= 1"

let check_q q =
  if not (Numerics.Prob.is_valid q) then invalid_arg "Rcm: q must be a probability"

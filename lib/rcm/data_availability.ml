let check_r r = if r < 1 then invalid_arg "Data_availability: r must be >= 1"

let clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x

let replica_survival ~q ~r ~quorum =
  check_r r;
  Spec.check_q q;
  if quorum <= 0 then 1.
  else if quorum > r then 0.
  else begin
    let p = 1. -. q in
    (* Sum the smaller tail for accuracy, then complement if needed. *)
    let tail_from lo hi =
      let acc = ref 0. in
      for k = lo to hi do
        acc :=
          !acc
          +. Numerics.Binomial.choose_float r k
             *. Float.pow p (float_of_int k)
             *. Float.pow q (float_of_int (r - k))
      done;
      !acc
    in
    let upper = r - quorum + 1 and lower = quorum in
    if upper <= lower then clamp01 (tail_from quorum r)
    else clamp01 (1. -. tail_from 0 (quorum - 1))
  end

open Numerics

(* Base-b identifier digits (section 3: "we will use binary strings as
   identifiers although any other base besides 2 can be used"). With
   b = 2^group, a d-bit identifier is D = d/group digits; a node at
   digit-distance h (h differing digits) is one of C(D,h) (b-1)^h, and
   summing over h recovers 2^d - 1 — the same population, redistributed
   over far fewer, fatter phases. Per-phase failure probabilities are
   unchanged (one useful contact per differing digit), so raising the
   base trades table size ((b-1)·D entries) for fewer phases and hence
   better static resilience — the Pastry design axis, quantified by
   RCM. *)

let check_group ~d ~group =
  if group < 1 then invalid_arg "Digits: group must be >= 1";
  if d mod group <> 0 then
    invalid_arg
      (Printf.sprintf "Digits: identifier length %d is not a multiple of digit width %d" d
         group)

let digit_count ~d ~group =
  check_group ~d ~group;
  d / group

let base ~group =
  if group < 1 || group > 30 then invalid_arg "Digits: group outside 1..30"
  else 1 lsl group

let log_population ~group ~d ~h =
  Spec.check_d d;
  let count = digit_count ~d ~group in
  if h < 1 || h > count then invalid_arg "Digits.log_population: h outside 1..digits"
  else begin
    let alternatives = float_of_int (base ~group - 1) in
    Binomial.log_choose count h +. (float_of_int h *. log alternatives)
  end

let tree_spec ~group =
  if group < 1 then invalid_arg "Digits.tree_spec: group must be >= 1";
  {
    Spec.geometry = Geometry.Tree;
    max_phase = (fun ~d -> digit_count ~d ~group);
    log_population = (fun ~d ~h -> log_population ~group ~d ~h);
    phase_failure = (fun ~d:_ ~q ~m:_ -> Spec.check_q q; q);
  }

(* XOR with digit-granularity correction: the chain of Fig. 5(b) is
   unchanged — at m unresolved digits there are m useful contacts (one
   per differing digit), independent of the base. *)
let xor_spec ~group =
  if group < 1 then invalid_arg "Digits.xor_spec: group must be >= 1";
  {
    Spec.geometry = Geometry.Xor;
    max_phase = (fun ~d -> digit_count ~d ~group);
    log_population = (fun ~d ~h -> log_population ~group ~d ~h);
    phase_failure = (fun ~d:_ ~q ~m -> Xor_routing.phase_failure ~q ~m);
  }

let tree_routability ~d ~q ~group = Engine.routability (tree_spec ~group) ~d ~q

let xor_routability ~d ~q ~group = Engine.routability (xor_spec ~group) ~d ~q

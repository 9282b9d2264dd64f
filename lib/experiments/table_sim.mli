(** Routability estimation over ablation overlays with custom
    constructors. *)

val routability :
  build:(Prng.Splitmix.t -> Overlay.Table.t) ->
  q:float ->
  trials:int ->
  pairs:int ->
  seed:int ->
  float
(** [build] is called once per trial with that trial's generator;
    failures and pair sampling then proceed as in {!Sim.Estimate}.
    Delivered over attempted pairs, [nan] when no trial had two
    survivors. *)

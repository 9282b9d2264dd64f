(** Experiment F6A — Fig. 6(a): percentage of failed paths versus node
    failure probability at N = 2^16, analysis against simulation, for
    the tree, hypercube and XOR geometries.

    The paper plots Gummadi et al.'s simulation points against the RCM
    curves; here both sides are regenerated (the simulator replaces the
    borrowed data, see DESIGN.md). Simulation columns accept an
    {!Exec.Pool} and are bit-identical for every pool size. *)

type config = {
  bits : int;
  qs : float list;
  trials : int;
  pairs_per_trial : int;
  seed : int;
}

val default_config : config
(** The paper's setting (bits = 16). *)

val quick_config : config
(** A smaller instance (bits = 10) for tests and smoke runs. *)

val analysis_values : config -> Rcm.Geometry.t -> float array
(** The analytical column evaluated over [cfg.qs]. *)

val simulation_values :
  ?pool:Exec.Pool.t ->
  ?cache:Overlay.Table_cache.t ->
  config ->
  Rcm.Geometry.t ->
  float array
(** The simulated column evaluated over [cfg.qs] as one
    [|qs| × trials] task batch: parallel under [pool], and paying
    [trials] overlay builds for the whole column (a fresh cache is
    used when none is supplied). *)

val run : ?pool:Exec.Pool.t -> config -> Series.t
(** Interleaved analysis and simulation columns — the full figure.
    Byte-identical output for every pool size. *)

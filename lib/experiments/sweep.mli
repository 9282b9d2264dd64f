(** The engine behind the point sweeps ({!Churn_curves},
    {!Storage_sweep}, {!Hotspot_sweep}): a grid of independent seeded
    points, each one deterministic function call.

    {!run} derives one 48-bit seed per point by grid index from the
    master seed, runs the points inline or on an {!Exec.Pool} under
    {!Exec.Pool.supervised} (retries, {!Exec.Fault} injection by grid
    index, cooperative cancellation), replays points a checkpoint
    already holds and records the rest, and drives one
    {!Obs.Progress} phase. Results are bit-identical at every pool
    size and whether points ran or replayed. *)

type ('c, 'p) codec = {
  kind : string;  (** the records' ["kind"] tag *)
  key : 'c -> seed:int -> Sim.Checkpoint.fields;
      (** every field that determines the point at these coordinates
          with this per-point seed, in file order *)
  encode : 'p -> Sim.Checkpoint.fields;
      (** the measured fields; a non-finite float is stored as an
          absent field *)
  decode : 'c -> Sim.Checkpoint.fields -> 'p;
      (** rebuilds the point from its coordinates and stored fields;
          raises [Failure] (via the {!Sim.Checkpoint} getters) on a
          missing or mistyped field *)
}
(** How a sweep's points are stored as {!Sim.Checkpoint} point
    records. *)

val run :
  ?pool:Exec.Pool.t ->
  ?retries:int ->
  ?fault:Exec.Fault.t ->
  ?checkpoint:Sim.Checkpoint.t * ('c, 'p) codec ->
  label:string ->
  group:('c -> string) ->
  describe:('c -> string) ->
  seed:int ->
  'c list ->
  ('c -> seed:int -> 'p) ->
  'p list
(** [run ~label ~group ~describe ~seed grid point] is
    [[point c_0 ~seed:s_0; ...]] in grid order, where [s_i] is the
    [i]-th output of a SplitMix stream seeded with [seed], masked to
    48 bits. [label] names the progress phase and the error messages,
    [group c] the progress group of a point (consecutive equal names
    form one group), [describe c] the point in a failure message.

    With [checkpoint], every stored point is looked up and decoded
    before any point runs, replayed points emit a [checkpoint/replay]
    trace event, and each computed point is recorded; the store is
    flushed before [run] returns or raises.
    @raise Invalid_argument when [retries < 0].
    @raise Failure when a stored record does not decode, or when a
    point exhausts its retries (["<label> point <i> (<describe>)
    failed after <n> attempts: <error>"]).
    @raise Exec.Cancel.Cancelled on cooperative cancellation. *)

(** The one engine every Monte-Carlo sweep fans out through:
    {!Estimate.run_sweep}'s (q, trial) grid, the point sweeps of
    churn, storage and hotspots ({!points}) and the points × trials
    grids of percolation and the ablations ({!grid}). Each caller keeps
    its own seed discipline and failure policy (DESIGN.md, "Checkpoint
    records and the sweep engine"). *)

type ('c, 'p) codec = {
  kind : string;  (** the records' ["kind"] tag *)
  key : 'c -> seed:int -> Checkpoint.fields;
      (** every field that determines the point at these coordinates
          with this per-point seed, in file order *)
  encode : 'p -> Checkpoint.fields;
      (** the measured fields; a non-finite float is stored as an
          absent field *)
  decode : 'c -> Checkpoint.fields -> 'p;
      (** rebuilds the point from its coordinates and stored fields;
          raises [Failure] (via the {!Checkpoint} getters) on a
          missing or mistyped field *)
}
(** How a point sweep's points are stored as {!Checkpoint} point
    records. *)

type 'a store = {
  checkpoint : Checkpoint.t;
  kind : string;  (** the [kind] attr of [checkpoint/replay] events *)
  find : int -> 'a Exec.Pool.outcome option;
      (** task [i]'s stored outcome; raises [Failure] when it does not
          decode *)
  record : int -> 'a Exec.Pool.outcome -> unit;
}
(** How {!run} looks tasks up in a checkpoint and records them. *)

val run :
  ?pool:Exec.Pool.t ->
  ?retries:int ->
  ?fault:Exec.Fault.t ->
  ?store:'a store ->
  label:string ->
  group:(int -> string) ->
  int ->
  (int -> 'a) ->
  'a Exec.Pool.outcome array
(** [run ~label ~group n task] runs [task i] for each [i < n], inline
    or on [pool], under {!Exec.Pool.supervised} with [retries]
    (default 0) and {!Exec.Fault} injection by task index, and returns
    the outcomes ([Done] or [Failed]) in index order: bit-identical at
    every pool size. With [store], every stored outcome is decoded
    before any task runs and replayed with a [checkpoint/replay] trace
    event; the others are recorded, and the checkpoint is flushed
    before [run] returns or raises. [label] names the progress phase,
    [group i] task [i]'s progress group (consecutive equal names form
    one group).
    @raise Invalid_argument when [retries < 0].
    @raise Failure when a stored outcome does not decode.
    @raise Exec.Cancel.Cancelled on cooperative cancellation. *)

val points :
  ?pool:Exec.Pool.t ->
  ?retries:int ->
  ?fault:Exec.Fault.t ->
  ?checkpoint:Checkpoint.t * ('c, 'p) codec ->
  label:string ->
  group:('c -> string) ->
  describe:('c -> string) ->
  seed:int ->
  'c list ->
  ('c -> seed:int -> 'p) ->
  'p list
(** [points ~label ~group ~describe ~seed coords point] is
    [[point c_0 ~seed:s_0; ...]], run by {!run}, where [s_i] is
    [(Trial.seeds ~seed ~trials:n).(i)] masked to 48 bits so that it
    round-trips through a JSON number as a checkpoint key field.
    @raise Failure when a point exhausts its retries: ["<label> point
    <i> (<describe c_i>) failed after <n> attempts: <error>"];
    otherwise as {!run}. *)

val grid :
  ?pool:Exec.Pool.t ->
  label:string ->
  name:('p -> string) ->
  seed:int ->
  trials:int ->
  'p list ->
  ('p -> int64 -> 'a) ->
  'a list list
(** [grid ~label ~name ~seed ~trials points f] is, for each point, the
    list of [f point (Trial.seeds ~seed ~trials).(i)] over the trials,
    run by {!run} as [|points| × trials] tasks. Every point reuses the
    same trial seeds, so a table cache keyed on them builds [trials]
    overlays for the whole grid. [name p] is the point's progress
    group.
    @raise Failure when a task raises: ["<label> point <k> (<name p_k>,
    trial <i>) failed after 1 attempts: <error>"]; otherwise as
    {!run}. *)

(* What the driver needs from a workload. One repetition of the job is
   the unit that is timed; ['r] is what a repetition computes, compared
   across repetitions and between the untraced and traced passes. *)

type check = { check : string; attempted : int; failed : int }

let check ?(attempted = 1) name ok = { check = name; attempted; failed = (if ok then 0 else 1) }

type 'r spec = {
  setup : Spans.t option -> unit;
      (** (Re)builds the state the job needs; called several times, the
          last call's state is what the job runs on. Traced when given
          a recorder. *)
  first : unit -> 'r * check list;
      (** The untimed warm-up repetition, plus the output checks that
          need the job's own state. Its result is the reference every
          later repetition must reproduce. *)
  run : unit -> 'r;  (** One untraced repetition. *)
  run_traced : Spans.t -> 'r;
      (** The same work driven through each layer's public functions
          under spans. *)
  ops : 'r -> int;  (** Operations in one repetition. *)
  diff : 'r -> 'r -> int;  (** Items in which two results differ. *)
  checks : 'r -> check list;  (** Output checks on a result alone. *)
  counts : 'r -> (string, float) Hashtbl.t -> (string * float) list;
      (** Per-layer counts and rates of a traced repetition, given its
          self-time rollup. *)
}

type t = Workload : 'r spec -> t

(* Compare two float fields as results, not as numbers: nan equals nan
   (an absent estimate must stay absent), everything else bit-equal. *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The number of positions at which two equally long lists differ, or
   their whole length when the lengths differ. *)
let list_diff eq a b =
  if List.compare_lengths a b <> 0 then max (List.length a) (List.length b)
  else List.fold_left2 (fun n x y -> if eq x y then n else n + 1) 0 a b

let per_geometry name geometries f =
  List.map (fun g -> (name ^ "." ^ Rcm.Geometry.name g, f g)) geometries

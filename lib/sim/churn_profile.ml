(* How a custom geometry family behaves under the churn engine: which
   table slots are positional (never redrawn in place) versus
   re-drawable, how a re-drawable slot is redrawn, whether maintenance
   ticks repair dead entries, and which closed form predicts
   routability from measured staleness. Registered per family at
   module-init time by the plugin library; Session_churn resolves
   through here. *)

type t = {
  near_slots : int;
  redraw : Prng.Splitmix.t -> v:int -> slot:int -> int;
  maintained : bool;
  prediction :
    bits:int -> stale:float -> stale_near:float -> stale_shortcut:float -> float;
}

type resolver = (string * int) list -> bits:int -> t

let resolvers : (string, resolver) Hashtbl.t = Hashtbl.create 8

let register ~family resolver =
  if Hashtbl.mem resolvers family then
    invalid_arg (Printf.sprintf "Churn_profile.register: %S already registered" family);
  Hashtbl.replace resolvers family resolver

let resolve_exn context geometry ~bits =
  match geometry with
  | Rcm.Geometry.Custom { family; params } -> (
      match Hashtbl.find_opt resolvers family with
      | Some resolver -> resolver params ~bits
      | None ->
          invalid_arg
            (Printf.sprintf "%s: family %S has no registered churn profile" context
               family))
  | _ -> invalid_arg (context ^ ": Churn_profile.resolve_exn on a built-in geometry")

(* Alive-preferring redraw with the engine's bounded-rejection rule
   (at most 8 extra draws, then accept whatever came up) — the same
   semantics as Session_churn.redraw_shortcut, so custom families age
   exactly like the built-ins. *)
let redraw_alive profile rng ~alive ~v ~slot =
  let rec try_draw attempts =
    let candidate = profile.redraw rng ~v ~slot in
    if Overlay.Failure.get alive candidate || attempts >= 8 then candidate
    else try_draw (attempts + 1)
  in
  try_draw 0

type key = Rcm.Geometry.t * int * int64

type entry = { table : Table.t; resume : int64 }

type t = {
  lock : Mutex.t;
  entries : (key, entry) Hashtbl.t;
  (* Insertion order, oldest first: exactly the cached keys. *)
  order : key Queue.t;
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable double_builds : int;
}

let create ?(capacity = 128) () =
  if capacity < 1 then invalid_arg "Table_cache.create: capacity < 1";
  {
    lock = Mutex.create ();
    entries = Hashtbl.create 64;
    order = Queue.create ();
    capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
    double_builds = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Drop the oldest entry still present. Only the table just inserted by
   the caller is guaranteed to survive; evicted tables stay valid for
   whoever already holds them (they are immutable), the cache just
   forgets them. Never resets the whole table: an in-flight q-sweep
   sharing a hot entry must not lose it to an unrelated insertion. *)
let evict_oldest t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some old ->
      Hashtbl.remove t.entries old;
      t.evictions <- t.evictions + 1;
      Obs.Metrics.incr_named "cache/evictions"

let get t ?backend:_ ~bits ~build_seed geometry =
  let key = (geometry, bits, build_seed) in
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.entries key with
  | Some e ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      Obs.Metrics.incr_named "cache/hits";
      (e.table, e.resume)
  | None ->
      t.misses <- t.misses + 1;
      Mutex.unlock t.lock;
      Obs.Metrics.incr_named "cache/misses";
      (* Build outside the lock: concurrent misses on the same key may
         build twice, but the constructions are deterministic in the
         key, so whichever entry lands first is the one everybody
         shares from then on. *)
      let table, resume =
        Obs.Trace.span "overlay/build"
          ~attrs:
            (if Obs.Trace.enabled () then
               [
                 ("geometry", Obs.Trace.String (Rcm.Geometry.name geometry));
                 ("bits", Obs.Trace.Int bits);
               ]
             else [])
          (fun () ->
            let rng = Prng.Splitmix.of_int64 build_seed in
            let table = Table.build ~rng ~bits geometry in
            (table, Prng.Splitmix.state rng))
      in
      let fresh = { table; resume } in
      let entry =
        locked t (fun () ->
            match Hashtbl.find_opt t.entries key with
            | Some existing ->
                (* Lost the build race: count the wasted construction. *)
                t.double_builds <- t.double_builds + 1;
                Obs.Metrics.incr_named "cache/double_builds";
                existing
            | None ->
                if Hashtbl.length t.entries >= t.capacity then evict_oldest t;
                Hashtbl.add t.entries key fresh;
                Queue.add key t.order;
                fresh)
      in
      (entry.table, entry.resume)

let hits t = locked t (fun () -> t.hits)

let misses t = locked t (fun () -> t.misses)

let evictions t = locked t (fun () -> t.evictions)

let double_builds t = locked t (fun () -> t.double_builds)

let length t = locked t (fun () -> Hashtbl.length t.entries)

(* [run] receives the index (0 = caller, 1.. = workers) of the domain
   executing it — observability only, never control flow. [abort] is
   how [shutdown] fails a submitted-but-unstarted job explicitly, so a
   concurrent [map] caller blocked on its completion count wakes up and
   raises instead of waiting forever. *)
type job = { run : int -> unit; abort : unit -> unit }

type t = {
  lock : Mutex.t;
  has_work : Condition.t;
  mutable pending : job list;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  size : int;
}

let default_domains () =
  match Sys.getenv_opt "DHT_RCM_JOBS" with
  | None -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
          let fallback = Domain.recommended_domain_count () in
          Printf.eprintf
            "dht_rcm: ignoring DHT_RCM_JOBS=%S (expected an integer >= 1); using %d domains\n%!"
            s fallback;
          fallback)

(* Workers block on the condition until a block of indices is submitted
   or the pool is shut down; they never steal from one another. *)
let worker pool member =
  let rec loop () =
    Mutex.lock pool.lock;
    let rec take () =
      match pool.pending with
      | job :: rest ->
          pool.pending <- rest;
          Some job
      | [] ->
          if pool.closed then None
          else begin
            Condition.wait pool.has_work pool.lock;
            take ()
          end
    in
    let job = take () in
    Mutex.unlock pool.lock;
    match job with
    | None -> ()
    | Some job ->
        job.run member;
        loop ()
  in
  loop ()

let create ?domains () =
  let size = match domains with Some n -> n | None -> default_domains () in
  if size < 1 then invalid_arg "Exec.Pool.with_pool: need at least one domain";
  let pool =
    {
      lock = Mutex.create ();
      has_work = Condition.create ();
      pending = [];
      closed = false;
      workers = [];
      size;
    }
  in
  if size > 1 then
    pool.workers <-
      List.init (size - 1) (fun i -> Domain.spawn (fun () -> worker pool (i + 1)));
  pool

let size t = t.size

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  let orphaned = t.pending in
  t.pending <- [];
  Condition.broadcast t.has_work;
  Mutex.unlock t.lock;
  (* Fail submitted-but-unstarted jobs explicitly (they can exist when
     shutdown races a map on another domain): aborting records a
     failure against the owning map and decrements its completion
     count, so its caller raises instead of hanging on [remaining]
     after the workers are gone. *)
  List.iter (fun job -> job.abort ()) (List.rev orphaned);
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let run_range f results lo hi =
  for i = lo to hi - 1 do
    results.(i) <- Some (f i)
  done

(* Per-block observability: which pool member ran it, how many tasks it
   covered, how long it queued and how long it ran. Gated on the global
   metrics flag; when disabled only [if false]-grade checks remain. *)
let record_block ~member ~tasks ~submitted ~started ~finished =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr_named ~by:tasks (Printf.sprintf "pool/domain%d/tasks" member);
    Obs.Metrics.observe_named "pool/queue_wait_s" (started -. submitted);
    Obs.Metrics.observe_named "pool/block_s" (finished -. started)
  end

let map t n f =
  if n < 0 then invalid_arg "Exec.Pool.map: negative size";
  if t.closed then invalid_arg "Exec.Pool.map: pool is shut down";
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let blocks = min t.size n in
    if blocks <= 1 then begin
      let submitted = Obs.Metrics.now () in
      (try run_range f results 0 n
       with e ->
         record_block ~member:0 ~tasks:n ~submitted ~started:submitted
           ~finished:(Obs.Metrics.now ());
         raise e);
      record_block ~member:0 ~tasks:n ~submitted ~started:submitted
        ~finished:(Obs.Metrics.now ())
    end
    else begin
      (* Static contiguous partition: block b covers [b*n/blocks,
         (b+1)*n/blocks). Each result index is written by exactly one
         domain, so the array needs no synchronisation of its own. *)
      let bound b = b * n / blocks in
      let remaining = ref (blocks - 1) in
      let failure = ref None in
      let finished = Condition.create () in
      let record_failure e bt =
        Mutex.lock t.lock;
        if !failure = None then failure := Some (e, bt);
        Mutex.unlock t.lock
      in
      (* [submitted] is per block: worker blocks are stamped when they
         enter the queue and [started] when a worker dequeues them, so
         [pool/queue_wait_s] measures real queue time; the caller's
         block 0 never queues and is charged zero wait. *)
      let run_block b member ~submitted =
        let started = Obs.Metrics.now () in
        (try run_range f results (bound b) (bound (b + 1))
         with e -> record_failure e (Printexc.get_raw_backtrace ()));
        record_block ~member ~tasks:(bound (b + 1) - bound b) ~submitted ~started
          ~finished:(Obs.Metrics.now ())
      in
      let complete_one () =
        Mutex.lock t.lock;
        decr remaining;
        if !remaining = 0 then Condition.broadcast finished;
        Mutex.unlock t.lock
      in
      let job b ~submitted =
        {
          run =
            (fun member ->
              run_block b member ~submitted;
              complete_one ());
          abort =
            (fun () ->
              record_failure
                (Failure "Exec.Pool.map: job aborted by shutdown")
                (Printexc.get_raw_backtrace ());
              complete_one ());
        }
      in
      Mutex.lock t.lock;
      if t.closed then begin
        (* Re-checked under the lock: a shutdown that raced the entry
           check must not enqueue jobs no worker will ever take. *)
        Mutex.unlock t.lock;
        invalid_arg "Exec.Pool.map: pool is shut down"
      end;
      let submitted = Obs.Metrics.now () in
      for b = 1 to blocks - 1 do
        t.pending <- job b ~submitted :: t.pending
      done;
      Condition.broadcast t.has_work;
      Mutex.unlock t.lock;
      (* The caller contributes block 0 rather than idling; it starts
         immediately, so its queue wait is genuinely zero. *)
      run_block 0 0 ~submitted:(Obs.Metrics.now ());
      Mutex.lock t.lock;
      while !remaining > 0 do
        Condition.wait finished t.lock
      done;
      Mutex.unlock t.lock;
      match !failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end;
    Array.map (function Some v -> v | None -> assert false) results
  end

(* --- Supervised execution -------------------------------------------------- *)

type 'a outcome =
  | Done of 'a
  | Failed of { attempts : int; error : string }
  | Cancelled

let supervised ?(retries = 0) ~task k =
  if retries < 0 then invalid_arg "Exec.Pool.supervised: negative retries";
  if Cancel.requested () then begin
    if Obs.Metrics.enabled () then Obs.Metrics.incr_named "supervisor/cancelled";
    Cancelled
  end
  else begin
    let rec attempt i =
      match task ~attempt:i k with
      | v -> Done v
      | exception Cancel.Cancelled ->
          (* Cooperative stop observed inside the task: not a failure. *)
          if Obs.Metrics.enabled () then Obs.Metrics.incr_named "supervisor/cancelled";
          Cancelled
      | exception e ->
          let error = Printexc.to_string e in
          if i <= retries then begin
            Obs.Progress.note_retry ();
            if Obs.Metrics.enabled () then Obs.Metrics.incr_named "supervisor/retries";
            if Obs.Trace.enabled () then
              Obs.Trace.event "supervisor/retry"
                ~attrs:
                  [
                    ("task", Obs.Trace.Int k);
                    ("attempt", Obs.Trace.Int i);
                    ("error", Obs.Trace.String error);
                  ]
                ();
            (* The retry re-derives everything from the task index (the
               determinism contract all tasks already obey for the
               pool), so a retried transient fault replays the original
               attempt bit for bit. *)
            attempt (i + 1)
          end
          else begin
            Obs.Progress.note_failed ();
            if Obs.Metrics.enabled () then Obs.Metrics.incr_named "supervisor/failed_trials";
            if Obs.Trace.enabled () then
              Obs.Trace.event "supervisor/failed"
                ~attrs:
                  [
                    ("task", Obs.Trace.Int k);
                    ("attempts", Obs.Trace.Int i);
                    ("error", Obs.Trace.String error);
                  ]
                ();
            Failed { attempts = i; error }
          end
    in
    attempt 1
  end

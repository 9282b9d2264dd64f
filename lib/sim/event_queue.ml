(* Two lanes, merged by (time, insertion sequence).

   The heap lane is a struct-of-arrays binary min-heap: slot i holds
   the event (times.(i), seqs.(i), payloads.(i)). Sifts move a hole
   rather than swapping.

   The periodic lane is a ring of ticks, kept sorted by (time, seq)
   from its head. A tick that pops is re-armed [interval] later with
   the next sequence number and appended at the tail. Rounding is
   monotone, so a <= b implies fl(a + interval) <= fl(b + interval):
   while every pending tick lies within one interval of the head, a
   re-armed tick is never earlier than the tail, and the append keeps
   the ring sorted at no cost. When an append would break the order
   (ticks added out of order, or spread over more than one interval),
   the ring is marked unsorted and sorted again before the next read,
   so the pop order is the heap's for every input.

   Every column is unboxed ([float array] and [int array]), so a move
   stores plain words: no slot goes through the write barrier and a
   popped payload leaves nothing reachable behind it. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable size : int;
  mutable next_seq : int;
  interval : float;
  mutable ring_times : float array;
  mutable ring_seqs : int array;
  mutable ring_payloads : int array;
  mutable head : int;
  mutable ticks : int;
  mutable sorted : bool;
}

let empty interval =
  {
    times = [||];
    seqs = [||];
    payloads = [||];
    size = 0;
    next_seq = 0;
    interval;
    ring_times = [||];
    ring_seqs = [||];
    ring_payloads = [||];
    head = 0;
    ticks = 0;
    sorted = true;
  }

let create ?interval () =
  match interval with
  | None -> empty Float.nan
  | Some i ->
      if not (Float.is_finite i && i > 0.0) then
        invalid_arg "Event_queue.create: interval must be positive and finite";
      empty i

let size t = t.size + t.ticks

let is_empty t = t.size = 0 && t.ticks = 0

(* --- heap lane -------------------------------------------------------- *)

(* Reallocate the three arrays at [capacity], keeping the live prefix. *)
let resize t capacity =
  let times = Array.make capacity 0.0 in
  let seqs = Array.make capacity 0 in
  let payloads = Array.make capacity 0 in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.payloads 0 payloads 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

(* Halve the arrays once they are no more than a quarter full, so a
   queue that briefly spiked does not pin the peak-sized arrays
   forever. *)
let maybe_shrink t =
  let capacity = Array.length t.times in
  if capacity > 16 && t.size <= capacity / 4 then resize t (capacity / 2)

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.payloads.(dst) <- t.payloads.(src)

let take_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let add t ~time payload =
  if Float.is_nan time then invalid_arg "Event_queue.add: nan time";
  if t.size >= Array.length t.times then resize t (max 16 (2 * Array.length t.times));
  let seq = take_seq t in
  (* Sift a hole up from the new last slot. The new event has the
     largest sequence number, so it passes a parent only on a strictly
     earlier time. *)
  let hole = ref t.size in
  let parent = ref ((t.size - 1) / 2) in
  while !hole > 0 && time < t.times.(!parent) do
    move t ~src:!parent ~dst:!hole;
    hole := !parent;
    parent := (!hole - 1) / 2
  done;
  t.times.(!hole) <- time;
  t.seqs.(!hole) <- seq;
  t.payloads.(!hole) <- payload;
  t.size <- t.size + 1

let pop_heap t =
  let payload = t.payloads.(0) in
  let last = t.size - 1 in
  t.size <- last;
  (* Sift the root hole down, then drop the former last event into it. *)
  if last > 0 then begin
    let moving_time = t.times.(last) and moving_seq = t.seqs.(last) in
    let moving = t.payloads.(last) in
    let hole = ref 0 and settled = ref false in
    while not !settled do
      let left = (2 * !hole) + 1 in
      if left >= last then settled := true
      else begin
        let right = left + 1 in
        let child =
          if
            right < last
            && (t.times.(right) < t.times.(left)
               || (t.times.(right) = t.times.(left) && t.seqs.(right) < t.seqs.(left)))
          then right
          else left
        in
        if
          t.times.(child) < moving_time
          || (t.times.(child) = moving_time && t.seqs.(child) < moving_seq)
        then begin
          move t ~src:child ~dst:!hole;
          hole := child
        end
        else settled := true
      end
    done;
    t.times.(!hole) <- moving_time;
    t.seqs.(!hole) <- moving_seq;
    t.payloads.(!hole) <- moving
  end;
  maybe_shrink t;
  payload

(* --- periodic lane ---------------------------------------------------- *)

let[@inline] ring_slot t i =
  let j = t.head + i in
  if j >= Array.length t.ring_times then j - Array.length t.ring_times else j

(* Rewrites the pending ticks into fresh arrays of [capacity] slots from
   slot 0, tick i taken from ring slot [order.(i)]. *)
let relayout t capacity order =
  let pick src fill =
    Array.init capacity (fun i -> if i < t.ticks then src.(order.(i)) else fill)
  in
  t.ring_times <- pick t.ring_times 0.0;
  t.ring_seqs <- pick t.ring_seqs 0;
  t.ring_payloads <- pick t.ring_payloads 0;
  t.head <- 0

(* Appends a tick at the tail; a tick earlier than the tail marks the
   ring for sorting. The ring grows only when a tick is added: a
   re-arm reuses the slot its tick just left. *)
let append t ~time ~seq payload =
  let capacity = Array.length t.ring_times in
  if t.ticks >= capacity then
    relayout t (max 16 (2 * capacity)) (Array.init t.ticks (ring_slot t));
  if t.ticks > 0 && time < t.ring_times.(ring_slot t (t.ticks - 1)) then t.sorted <- false;
  let slot = ring_slot t t.ticks in
  t.ring_times.(slot) <- time;
  t.ring_seqs.(slot) <- seq;
  t.ring_payloads.(slot) <- payload;
  t.ticks <- t.ticks + 1

(* Sorts the pending ticks by (time, seq), keys no two ticks share. *)
let sort_ring t =
  let order = Array.init t.ticks (ring_slot t) in
  Array.sort
    (fun a b ->
      let c = Float.compare t.ring_times.(a) t.ring_times.(b) in
      if c <> 0 then c else Int.compare t.ring_seqs.(a) t.ring_seqs.(b))
    order;
  relayout t (Array.length t.ring_times) order;
  t.sorted <- true

let add_periodic t ~time payload =
  if Float.is_nan t.interval then invalid_arg "Event_queue.add_periodic: no interval";
  if Float.is_nan time then invalid_arg "Event_queue.add_periodic: nan time";
  append t ~time ~seq:(take_seq t) payload

(* True when the ring's head pops before the heap's root. *)
let[@inline] ring_first t =
  t.ticks > 0
  && begin
       if not t.sorted then sort_ring t;
       t.size = 0
       ||
       let time = t.ring_times.(t.head) in
       time < t.times.(0) || (time = t.times.(0) && t.ring_seqs.(t.head) < t.seqs.(0))
     end

let min_time t =
  if ring_first t then t.ring_times.(t.head)
  else if t.size = 0 then invalid_arg "Event_queue.min_time: empty queue"
  else t.times.(0)

let pop t =
  if ring_first t then begin
    let slot = t.head in
    let time = t.ring_times.(slot) and payload = t.ring_payloads.(slot) in
    t.head <- (if slot + 1 = Array.length t.ring_times then 0 else slot + 1);
    t.ticks <- t.ticks - 1;
    append t ~time:(time +. t.interval) ~seq:(take_seq t) payload;
    payload
  end
  else if t.size = 0 then invalid_arg "Event_queue.pop: empty queue"
  else pop_heap t

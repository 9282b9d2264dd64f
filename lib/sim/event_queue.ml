(* Struct-of-arrays binary min-heap: slot i holds the event
   (times.(i), seqs.(i), payloads.(i)). Ordering is by (time, insertion
   sequence), so ties pop in insertion order and simulations stay
   deterministic. Sifts move a hole rather than swapping.

   All three columns are unboxed ([float array] and [int array]), so a
   sift stores plain words: no slot goes through the write barrier and
   a popped payload leaves nothing reachable behind it. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }

let size t = t.size

let is_empty t = t.size = 0

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

let add t ~time payload =
  if Float.is_nan time then invalid_arg "Event_queue.add: nan time";
  if t.size >= Array.length t.times then resize t (max 16 (2 * Array.length t.times));
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
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

let min_time t =
  if t.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
  t.times.(0)

let pop t =
  if t.size = 0 then invalid_arg "Event_queue.pop: empty queue";
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

module Bitset = Bitset

type t = Bitset.t

(* Fill the mask words from a Splitmix state (fill_stubs.c): through
   the best loop variant the CPU runs, or through variant [k] of
   [sample_variants], which returns false without writing when it
   cannot run here. *)
external sample_words :
  Bitset.words -> (int[@untagged]) -> (float[@unboxed]) -> (int64[@unboxed]) -> unit
  = "rcm_sample_alive_bc" "rcm_sample_alive"
[@@noalloc]

external sample_words_variant : int -> Bitset.words -> int -> float -> int64 -> bool
  = "rcm_sample_alive_variant"

(* Draw order is one bernoulli per node, id ascending — exactly the
   order the historical [Array.init n (fun _ -> not (bernoulli ...))]
   consumed, so masks sampled from a given rng state are unchanged by
   the packed representation and by the C loop, which replays those n
   draws from the rng's state. Every variant writes each word whole,
   the tail bits as zeros, so the words need no zeroing first. *)
let sample_with fill ~rng ~q n =
  if not (Numerics.Prob.is_valid q) then invalid_arg "Failure.sample: invalid q";
  if n < 0 then invalid_arg "Failure.sample: negative size";
  let mask = Bitset.unfilled n in
  fill (Bitset.words mask) n q (Prng.Splitmix.state rng);
  Prng.Splitmix.advance rng n;
  mask

let sample ~rng ~q n = sample_with sample_words ~rng ~q n

let sample_variants =
  List.filter_map
    (fun (k, name) ->
      if sample_words_variant k (Bitset.words (Bitset.create 0)) 0 0. 0L then
        let fill words n q state = ignore (sample_words_variant k words n q state) in
        Some (name, sample_with fill)
      else None)
    [ (0, "x86-64-v4"); (1, "x86-64-v3"); (2, "default") ]

let survivors = Bitset.members

let none = Bitset.all

let length = Bitset.length

let get = Bitset.get

let set = Bitset.set

let to_bool_array = Bitset.to_bool_array

(* Correlated failure: a contiguous block of ids (wrapping) dies
   together — the id-space footprint of a site or subnet outage when
   identifiers encode locality. *)
let sample_block ~rng ~fraction n =
  if not (Numerics.Prob.is_valid fraction) then
    invalid_arg "Failure.sample_block: invalid fraction";
  if n < 0 then invalid_arg "Failure.sample_block: negative size";
  let mask = Bitset.all n in
  let dead = int_of_float (Float.round (fraction *. float_of_int n)) in
  if dead > 0 && n > 0 then begin
    let start = Prng.Splitmix.int rng n in
    for offset = 0 to min dead n - 1 do
      Bitset.set mask ((start + offset) mod n) false
    done
  end;
  mask

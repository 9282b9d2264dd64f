(* Rank index over an alive mask: see rank.h for the layout and the
   select walk. [index] holds both arrays, [incl] in its first [nw]
   entries and [dir] after it, sized for the largest directory: one
   allocation of [8 nw] bytes, the mask's own size. The C side reads a
   [t]'s fields by position, so their order is fixed: words, index,
   nw, shift, count. *)

type u32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  words : Bitset.words;
  index : u32;
  nw : int;
  shift : int;
  count : int;
  mask : Bitset.t;
}

external prefix : Bitset.words -> int -> u32 -> int = "rcm_rank_prefix" [@@noalloc]
external directory : u32 -> int -> int -> unit = "rcm_rank_directory" [@@noalloc]
external select_unsafe : t -> int -> int = "rcm_rank_select" [@@noalloc]
external select_variant_unsafe : int -> t -> int -> int = "rcm_rank_select_variant" [@@noalloc]
external x86_64_v4 : unit -> bool = "rcm_x86_64_v4" [@@noalloc]

let create mask =
  let n = Bitset.length mask in
  if n > 1 lsl 32 - 1 then invalid_arg "Rank.create: mask longer than 2^32 - 1 bits";
  let nw = (n + 31) lsr 5 in
  let index = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (2 * nw) in
  let count = prefix (Bitset.words mask) n index in
  (* The smallest shift with count <= nw lsl shift, so that the
     directory has at most nw entries (at most 5, since a word holds at
     most 32 survivors). *)
  let shift = ref 0 in
  while count > nw lsl !shift do
    incr shift
  done;
  directory index nw !shift;
  { words = Bitset.words mask; index; nw; shift = !shift; count; mask }

let empty = create (Bitset.create 0)

let count t = t.count

let mask t = t.mask

let memory_bytes t = 4 * Bigarray.Array1.dim t.index

let check t i context =
  if i < 0 || i >= t.count then
    invalid_arg (Printf.sprintf "Rank.%s: index %d outside [0, %d)" context i t.count)

let select t i =
  check t i "select";
  select_unsafe t i

let select_variants =
  List.map
    (fun (name, k) ->
      ( name,
        fun t i ->
          check t i "select";
          select_variant_unsafe k t i ))
    ((if x86_64_v4 () then [ ("x86-64-v4", 0) ] else []) @ [ ("default", 1) ])

(* Packed alive-bitset: one bit per node in an int Bigarray, 32 bits
   used per element.

   Why 32 bits of an [int] element instead of an [int64] Bigarray:
   reading an int64 element materialises a boxed [Int64.t] unless the
   compiler can prove it dead, which the non-flambda compiler cannot in
   a loop that only tests one bit — that would put an allocation on
   every alive-check of the batch routing kernel. An [int] element is
   immediate, so the membership test below compiles to one load, one
   shift and one mask. Using only the low 32 bits of each word keeps
   popcounts and tail masking inside 62-bit arithmetic on every
   platform OCaml supports.

   The payload lives outside the OCaml heap, so a mask sampled once is
   read concurrently by the routing kernels of every domain without
   adding GC scanning work — the same sharing argument as [Flat]. *)

type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { length : int; words : words }

let bits_per_word = 32

let word_count len = (len + (bits_per_word - 1)) lsr 5

let length t = t.length

let words t = t.words

let unfilled len =
  if len < 0 then invalid_arg "Bitset.create: negative length";
  { length = len; words = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (word_count len) }

let create len =
  let t = unfilled len in
  Bigarray.Array1.fill t.words 0;
  t

(* All-ones, with the bits beyond [len] in the last word kept zero so
   popcount-based accounting never sees ghost members. *)
let all len =
  let t = create len in
  Bigarray.Array1.fill t.words 0xFFFF_FFFF;
  let tail = len land (bits_per_word - 1) in
  if tail <> 0 then t.words.{word_count len - 1} <- (1 lsl tail) - 1;
  t

let check t v context =
  if v < 0 || v >= t.length then
    invalid_arg (Printf.sprintf "Bitset.%s: index %d outside [0, %d)" context v t.length)

let[@inline] unsafe_get t v =
  Bigarray.Array1.unsafe_get t.words (v lsr 5) lsr (v land 31) land 1 <> 0

let get t v =
  check t v "get";
  unsafe_get t v

let set t v b =
  check t v "set";
  let w = v lsr 5 and bit = 1 lsl (v land 31) in
  let old = Bigarray.Array1.unsafe_get t.words w in
  Bigarray.Array1.unsafe_set t.words w (if b then old lor bit else old land lnot bit)

(* 32-bit popcount in 62-bit arithmetic (words never exceed 2^32). *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f in
  (x * 0x0101_0101) lsr 24 land 0x3f

let count t =
  let total = ref 0 in
  for w = 0 to Bigarray.Array1.dim t.words - 1 do
    total := !total + popcount32 (Bigarray.Array1.unsafe_get t.words w)
  done;
  !total

(* Writes the member ids into the array, at most its length
   (fill_stubs.c). *)
external members_into : words -> int array -> unit = "rcm_bitset_members" [@@noalloc]

(* Member ids ascending: words in index order, bits low-to-high, so the
   result matches a left-to-right scan of the equivalent [bool array].
   The C walk reads the same low 32 bits per word that [count] sizes
   the array from. *)
let members t =
  let out = Array.make (count t) 0 in
  members_into t.words out;
  out

let to_bool_array t = Array.init t.length (unsafe_get t)

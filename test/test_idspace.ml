open Helpers

let bits = 8

let space = Idspace.Space.create ~bits

let test_space_size () =
  Alcotest.(check int) "size" 256 (Idspace.Space.size space);
  Alcotest.(check int) "bits" 8 (Idspace.Space.bits space)

let test_space_bounds () =
  Alcotest.check_raises "too many bits"
    (Invalid_argument "Space.create: bits must be in 1..30 (got 31)") (fun () ->
      ignore (Idspace.Space.create ~bits:31))

let test_space_contains () =
  Idspace.Space.check space 0;
  Idspace.Space.check space 255;
  List.iter
    (fun id ->
      Alcotest.check_raises (Printf.sprintf "%d out" id)
        (Invalid_argument (Printf.sprintf "Space: id %d outside 2^8 space" id)) (fun () ->
          Idspace.Space.check space id))
    [ 256; -1 ]

let test_xor_distance () =
  Alcotest.(check int) "0b0110 xor 0b0101" 3 (Idspace.Id.xor_distance 6 5);
  Alcotest.(check int) "self" 0 (Idspace.Id.xor_distance 42 42)

let test_hamming () =
  Alcotest.(check int) "0xFF vs 0x00" 8 (Idspace.Id.hamming_distance 0xFF 0x00);
  Alcotest.(check int) "6 vs 5" 2 (Idspace.Id.hamming_distance 6 5)

let test_ring_distance () =
  Alcotest.(check int) "forward" 3 (Idspace.Id.ring_distance ~bits 10 13);
  Alcotest.(check int) "wraps" 253 (Idspace.Id.ring_distance ~bits 13 10);
  Alcotest.(check int) "self" 0 (Idspace.Id.ring_distance ~bits 9 9)

(* Reference for [Id.floor_log2]: shift one bit at a time. *)
let reference_floor_log2 x =
  let rec scan v acc = if v <= 1 then acc else scan (v lsr 1) (acc + 1) in
  scan x 0

let test_floor_log2 () =
  Alcotest.(check int) "1" 0 (Idspace.Id.floor_log2 1);
  Alcotest.(check int) "2" 1 (Idspace.Id.floor_log2 2);
  Alcotest.(check int) "255" 7 (Idspace.Id.floor_log2 255);
  Alcotest.(check int) "256" 8 (Idspace.Id.floor_log2 256);
  let agrees x = Idspace.Id.floor_log2 x = reference_floor_log2 x in
  for x = 1 to 1 lsl 16 do
    if not (agrees x) then Alcotest.failf "floor_log2 %d" x
  done;
  for k = 1 to 61 do
    List.iter
      (fun x -> if not (agrees x) then Alcotest.failf "floor_log2 (2^%d%+d)" k (x - (1 lsl k)))
      [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ]
  done;
  Alcotest.(check int) "max_int" (reference_floor_log2 max_int) (Idspace.Id.floor_log2 max_int);
  List.iter
    (fun x ->
      Alcotest.check_raises (Printf.sprintf "floor_log2 %d" x)
        (Invalid_argument "Id.floor_log2: non-positive argument") (fun () ->
          ignore (Idspace.Id.floor_log2 x)))
    [ 0; -1; min_int ]

let floor_log2_matches_reference =
  qcheck "floor_log2 matches the bitwise recursion"
    (* A random positive int shifted down a random amount, so every
       bit length is drawn about equally often. *)
    QCheck2.Gen.(map2 (fun x shift -> max 1 ((x land max_int) lsr shift)) int (int_range 0 61))
    (fun x -> Idspace.Id.floor_log2 x = reference_floor_log2 x)

let test_bit_numbering () =
  (* Bit 1 is the MSB: flipping it on 0 gives 1000_0000. *)
  Alcotest.(check int) "flip MSB" 0x80 (Idspace.Id.flip_bit ~bits 0 1);
  Alcotest.(check int) "flip LSB" 0x01 (Idspace.Id.flip_bit ~bits 0 8);
  Alcotest.(check bool) "get MSB" true (Idspace.Id.get_bit ~bits 0x80 1);
  Alcotest.(check bool) "get LSB" false (Idspace.Id.get_bit ~bits 0x80 8)

let test_bit_bounds () =
  Alcotest.check_raises "bit 0" (Invalid_argument "Id: bit index outside 1..bits") (fun () ->
      ignore (Idspace.Id.get_bit ~bits 0 0))

let test_highest_differing_bit () =
  Alcotest.(check (option int)) "equal" None (Idspace.Id.highest_differing_bit ~bits 7 7);
  (* 0b0000_0110 vs 0b0000_0101 differ first at bit 7 (value 2). *)
  Alcotest.(check (option int)) "6 vs 5" (Some 7) (Idspace.Id.highest_differing_bit ~bits 6 5);
  Alcotest.(check (option int)) "msb" (Some 1) (Idspace.Id.highest_differing_bit ~bits 0 0x80)

let test_common_prefix () =
  Alcotest.(check int) "equal" 8 (Idspace.Id.common_prefix_length ~bits 9 9);
  Alcotest.(check int) "6 vs 5" 6 (Idspace.Id.common_prefix_length ~bits 6 5);
  Alcotest.(check int) "none" 0 (Idspace.Id.common_prefix_length ~bits 0 0x80)

let test_with_suffix () =
  (* Keep the first 3 bits (111) of 0b1110_0000; the remaining 5 bits
     come from the suffix 0b10101, giving 111_10101. *)
  Alcotest.(check int) "suffix" 0b111_10101
    (Idspace.Id.with_suffix ~bits 0b1110_0000 ~prefix_len:3 ~suffix:0b10101);
  Alcotest.(check int) "full prefix" 42 (Idspace.Id.with_suffix ~bits 42 ~prefix_len:8 ~suffix:0)

let test_binary_string () =
  let show id = Format.asprintf "%a" (Idspace.Id.pp ~bits) id in
  Alcotest.(check string) "0x80" "10000000" (show 0x80);
  Alcotest.(check string) "5" "00000101" (show 5)

let id_gen = QCheck2.Gen.int_range 0 255

let xor_symmetry =
  qcheck "xor distance symmetric" QCheck2.Gen.(pair id_gen id_gen) (fun (a, b) ->
      Idspace.Id.xor_distance a b = Idspace.Id.xor_distance b a)

let xor_triangle =
  qcheck "xor satisfies triangle inequality"
    QCheck2.Gen.(triple id_gen id_gen id_gen)
    (fun (a, b, c) ->
      Idspace.Id.xor_distance a c <= Idspace.Id.xor_distance a b + Idspace.Id.xor_distance b c)

let hamming_equals_popcount_of_xor =
  qcheck "hamming = popcount of xor" QCheck2.Gen.(pair id_gen id_gen) (fun (a, b) ->
      let rec pop x = if x = 0 then 0 else (x land 1) + pop (x lsr 1) in
      Idspace.Id.hamming_distance a b = pop (Idspace.Id.xor_distance a b))

let ring_antisymmetry =
  qcheck "ring distances of a pair sum to 0 or 2^bits"
    QCheck2.Gen.(pair id_gen id_gen)
    (fun (a, b) ->
      let fwd = Idspace.Id.ring_distance ~bits a b in
      let bwd = Idspace.Id.ring_distance ~bits b a in
      if a = b then fwd = 0 && bwd = 0 else fwd + bwd = 256)

let flip_involution =
  qcheck "flip_bit is an involution"
    QCheck2.Gen.(pair id_gen (int_range 1 8))
    (fun (a, i) -> Idspace.Id.flip_bit ~bits (Idspace.Id.flip_bit ~bits a i) i = a)

let prefix_plus_differ =
  qcheck "common prefix + highest differing bit are consistent"
    QCheck2.Gen.(pair id_gen id_gen)
    (fun (a, b) ->
      match Idspace.Id.highest_differing_bit ~bits a b with
      | None -> a = b && Idspace.Id.common_prefix_length ~bits a b = bits
      | Some i ->
          Idspace.Id.common_prefix_length ~bits a b = i - 1
          && Idspace.Id.get_bit ~bits a i <> Idspace.Id.get_bit ~bits b i)

let with_suffix_preserves_prefix =
  qcheck "with_suffix preserves the prefix"
    QCheck2.Gen.(triple id_gen (int_range 0 8) id_gen)
    (fun (id, prefix_len, suffix) ->
      let out = Idspace.Id.with_suffix ~bits id ~prefix_len ~suffix in
      prefix_len = 0 || Idspace.Id.common_prefix_length ~bits id out >= prefix_len)

let suite =
  [
    ("space size", `Quick, test_space_size);
    ("space bounds", `Quick, test_space_bounds);
    ("space contains", `Quick, test_space_contains);
    ("xor distance", `Quick, test_xor_distance);
    ("hamming distance", `Quick, test_hamming);
    ("ring distance", `Quick, test_ring_distance);
    ("floor_log2", `Quick, test_floor_log2);
    ("bit numbering (MSB first)", `Quick, test_bit_numbering);
    ("bit bounds", `Quick, test_bit_bounds);
    ("highest differing bit", `Quick, test_highest_differing_bit);
    ("common prefix", `Quick, test_common_prefix);
    ("with_suffix", `Quick, test_with_suffix);
    ("binary string", `Quick, test_binary_string);
    xor_symmetry;
    xor_triangle;
    hamming_equals_popcount_of_xor;
    ring_antisymmetry;
    flip_involution;
    prefix_plus_differ;
    with_suffix_preserves_prefix;
    floor_log2_matches_reference;
  ]

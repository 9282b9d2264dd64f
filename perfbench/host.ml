(* Host-speed probe. The shared host's speed drifts in phases of seconds
   to minutes, by up to half again, so every timed stretch is bracketed
   by probe readings and its time is reported scaled to a reference
   probe time (see {!scale}).

   One reading runs five fixed kernels and reports their total time:
   - independent random reads over a 128 MiB buffer (memory latency
     under some parallelism: what the overlay builds and the failure
     masks at N = 2^20 are bound by), also reported as [mem_ns] per read;
   - a dependent xorshift chain (core clock), also reported as [alu_ns]
     per step;
   - dependent chases over a 256 KiB and an 8 MiB permutation (cache
     latency: what the small overlays of churn and storage sit in);
   - [Hashtbl] inserts and lookups (allocation and the GC).
   No one kernel tracks every workload; their sum tracked all of them
   best in measurements on the development host.

   The kernels run in one child process ([exe --host-probe], which runs
   {!serve}) that answers one request per line on its stdin: its buffers
   never count towards the workload's peak RSS and are built once per
   run, and the parent blocks while the child probes, so the two never
   compete for the host. *)

type int32_buffer = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let mem_words = 32 lsl 20
let mem_reads = 1_000_000
let alu_steps = 10_000_000
let chase_steps = 1_000_000
let hash_keys = 200_000

let seconds f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let random_reads (buf : int32_buffer) =
  let mask = Bigarray.Array1.dim buf - 1 in
  let x = ref 0x2545F491 and acc = ref 0 in
  for _ = 1 to mem_reads do
    x := (!x * 0x5851F42D4C957F2D) + 0x14057B7EF767814F;
    acc := !acc + Int32.to_int (Bigarray.Array1.unsafe_get buf ((!x lsr 20) land mask))
  done;
  if !acc <> mem_reads then failwith "Host.random_reads: probe buffer corrupted"

let xorshift () =
  let x = ref 88172645463325252 in
  for _ = 1 to alu_steps do
    let v = !x lxor (!x lsl 13) in
    let v = v lxor (v lsr 7) in
    x := v lxor (v lsl 17)
  done;
  if !x = 0 then failwith "Host.xorshift: degenerate state"

(* A random cyclic permutation of [0, n), so a chase visits every slot. *)
let cycle n =
  let order = Array.init n Fun.id in
  let rng = Random.State.make [| n |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let next = Array.make n 0 in
  Array.iteri (fun k v -> next.(v) <- order.((k + 1) mod n)) order;
  next

let chase next =
  let p = ref 0 in
  for _ = 1 to chase_steps do
    p := Array.unsafe_get next !p
  done;
  ignore (Sys.opaque_identity !p)

let hashtbl () =
  let h = Hashtbl.create 16 in
  for i = 1 to hash_keys do
    Hashtbl.replace h (i * 7919) i
  done;
  for i = 1 to hash_keys do
    if Hashtbl.find_opt h (i * 7919) <> Some i then failwith "Host.hashtbl: lost a key"
  done

type reading = {
  total_s : float;  (** all five kernels *)
  mem_ns : float;
  alu_ns : float;
}

(* The child's loop: one reading per input line, until EOF. *)
let serve () =
  let buf = Bigarray.(Array1.create int32 c_layout mem_words) in
  Bigarray.Array1.fill buf 1l;
  let l2 = cycle (32 lsl 10) and llc = cycle (1 lsl 20) in
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some _ ->
        let mem = seconds (fun () -> random_reads buf) in
        let alu = seconds xorshift in
        let rest = seconds (fun () -> chase l2; chase llc; hashtbl ()) in
        Printf.printf "%.17g %.17g %.17g\n%!" (mem +. alu +. rest)
          (mem *. 1e9 /. float_of_int mem_reads)
          (alu *. 1e9 /. float_of_int alu_steps);
        loop ()
  in
  loop ()

type t = { ic : in_channel; oc : out_channel; mutable readings : reading list }

let start () =
  let exe = Sys.executable_name in
  let ic, oc = Unix.open_process_args exe [| exe; "--host-probe" |] in
  { ic; oc; readings = [] }

let read t =
  output_string t.oc "probe\n";
  flush t.oc;
  match Option.map (String.split_on_char ' ') (In_channel.input_line t.ic) with
  | Some [ total; mem; alu ] ->
      let r =
        { total_s = float_of_string total; mem_ns = float_of_string mem; alu_ns = float_of_string alu }
      in
      t.readings <- r :: t.readings;
      r
  | _ -> failwith "host probe process failed"

(* Every reading of the run, oldest first. *)
let readings t = List.rev t.readings

(* Closes the child's stdin and waits for it to exit. *)
let stop t =
  match Unix.close_process (t.ic, t.oc) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "host probe process failed"

(* The probe time the reported times are scaled to: about what a
   reading takes on the development host in a quiet phase. *)
let reference_s = 0.27

(* The factor that scales a time measured between the readings [before]
   and [after] to a host whose probe takes {!reference_s}. When the host
   slows, the probe and the job slow together and the scaled time stays
   put. *)
let scale ~before ~after = reference_s /. ((before.total_s +. after.total_s) /. 2.)

(* ReCord (Zeng & Hsu, cs/0410074): h-ary recursive rings generalising
   randomized Chord. In RCM terms the geometry is digit-granular
   Kademlia: identifiers are read as D = d/log2(h) base-h digits, node
   v keeps one randomized contact per (digit level, alternative digit
   value) — degree (h-1)·D — and routing greedily corrects the most
   significant differing digit, falling back to lower levels exactly
   like the XOR router falls back over set bits. At h = 2 every piece
   below degenerates draw-for-draw to the built-in xor geometry
   (pinned by test_geom), which is what makes the plugin a worked
   conformance example: raising h trades table size for fewer, fatter
   phases along the Pastry design axis that Rcm.Digits quantifies.

   This module is the registration unit: linked with -linkall, its
   init hooks the family into every layer's registry — parsing
   (Rcm.Geometry), closed forms and chains (Rcm.Model), table and
   sparse construction (Overlay), scalar/batch/sparse routing
   (Routing), churn behaviour (Sim.Churn_profile), replica placement
   (Storage.Placement) and the descriptor registry (Geom). Nothing
   outside this directory pattern-matches the family. *)

let family = "record"

let log2_exact h =
  let rec go g x = if x <= 1 then g else go (g + 1) (x lsr 1) in
  go 0 h

let group_of params =
  match List.assoc_opt "h" params with
  | Some h -> log2_exact h
  | None -> invalid_arg "record: missing parameter h"

let () =
  Rcm.Geometry.register_family
    {
      Rcm.Geometry.family_name = family;
      aliases = [ "rechord" ];
      family_system = "ReCord";
      summary = "ReCord: base-h recursive-ring digit routing (randomized Chord family)";
      defaults = [ ("h", 2) ];
      validate =
        (fun params ->
          match List.assoc_opt "h" params with
          | None -> Error "missing parameter h"
          | Some h ->
              if h < 2 || h > 1024 then Error "h must be in 2..1024"
              else if h land (h - 1) <> 0 then Error "h must be a power of two"
              else Ok ());
      check_bits =
        (fun params ~bits ->
          let group = group_of params in
          if bits mod group = 0 then Ok ()
          else
            Error
              (Printf.sprintf "h=%d needs digit width %d to divide bits=%d" (1 lsl group)
                 group bits));
    }

let geometry ?(h = 2) () =
  match Rcm.Geometry.custom ~family [ ("h", h) ] with
  | Ok g -> g
  | Error e -> invalid_arg ("Geom_record.geometry: " ^ e)

(* --- closed forms ---------------------------------------------------------

   The RCM spec is exactly Rcm.Digits.xor_spec: D = d/group phases,
   n(h) = C(D,h)(h_base-1)^h, and at m unresolved digits there are m
   useful contacts, so Q(m) is the XOR expression — base-independent.
   The routing chain per digit distance is likewise the XOR chain. *)

let () =
  Rcm.Model.register_custom ~family
    {
      Rcm.Model.spec = (fun params -> Rcm.Digits.xor_spec ~group:(group_of params));
      kind = `Lower_bound;
      chain = Some (fun _params ~d:_ ~q ~h -> Markov.Routing_chains.xor ~h ~q);
      classification =
        ( `Scalable,
          "Q(m) is the XOR expression (m useful contacts at m unresolved digits), \
           independent of the base, so sum Q(m) converges for every h" );
    }

(* --- table construction ---------------------------------------------------

   Slot layout: slot = (level-1)·(h-1) + rank-1, level 1..D most
   significant digit first, rank 1..h-1 the offset added (mod h) to
   the node's own digit. The entry sets that digit and randomizes
   every lower-order bit with a single Prng draw — the digit
   generalisation of xor_entry, consuming one draw per entry in
   (v, slot) order. *)

let () =
  Overlay.Table.register_custom_builder ~family (fun ~space ~rng params ->
      let bits = Idspace.Space.bits space in
      let group = group_of params in
      let b = 1 lsl group in
      let digits = bits / group in
      let size = Idspace.Space.size space in
      let entry v i =
        let level = (i / (b - 1)) + 1 in
        let rank = (i mod (b - 1)) + 1 in
        let own = Idspace.Digit.get ~bits ~group v level in
        let stepped = Idspace.Digit.set ~bits ~group v level ((own + rank) mod b) in
        let suffix = Prng.Splitmix.int rng size in
        Idspace.Id.with_suffix ~bits stepped ~prefix_len:(level * group) ~suffix
      in
      (digits * (b - 1), entry))

(* --- scalar routing -------------------------------------------------------

   Greedy digit correction with XOR-style fallback: prefer the contact
   correcting the most significant differing digit; when it is dead,
   fall back level by level. Fixing the differing digit at level L
   zeroes an indicator term of weight h^(D-L) while the randomized
   suffix can only contribute terms strictly below it, so every hop
   strictly decreases the digit-indicator distance — the same progress
   argument as the XOR router, to which this specialises at h = 2. *)

let params_of table_geometry =
  match table_geometry with
  | Rcm.Geometry.Custom { params; _ } -> params
  | _ -> invalid_arg "Geom_record: table geometry is not a record instance"

let route ?(on_hop = ignore) table ~rng:_ ~alive ~src ~dst =
  let bits = Overlay.Table.bits table in
  let group = group_of (params_of (Overlay.Table.geometry table)) in
  let b = 1 lsl group in
  let digits = bits / group in
  let rec step cur hops =
    if cur = dst then Routing.Outcome.Delivered { hops }
    else begin
      let leading =
        match Idspace.Digit.highest_differing ~bits ~group cur dst with
        | Some level -> level
        | None -> assert false
      in
      let rec try_level level =
        if level > digits then None
        else begin
          let own = Idspace.Digit.get ~bits ~group cur level in
          let want = Idspace.Digit.get ~bits ~group dst level in
          if own = want then try_level (level + 1)
          else begin
            let rank = (want - own + b) mod b in
            let candidate =
              Overlay.Table.neighbor table cur (((level - 1) * (b - 1)) + rank - 1)
            in
            if Overlay.Failure.get alive candidate then Some candidate
            else try_level (level + 1)
          end
        end
      in
      match try_level leading with
      | None -> Routing.Outcome.Dropped { hops; stuck_at = cur }
      | Some next ->
          on_hop next;
          step next (hops + 1)
    end
  in
  step src 0

let () = Routing.Router.register_custom ~family route

(* --- batch lane -----------------------------------------------------------

   The router draws no randomness while forwarding, so the family can
   opt into a Block lane: the same walk compiled against the CSR
   arrays directly (Int32 target loads, packed-bitset liveness, slice
   bumps at the scalar counting points). Bit-identity with the scalar
   lane is pinned by the registry-driven batch differential test. *)

let block ~group : Routing.Route_batch.block_router =
 fun targets words offsets srcs dsts n hops_buf stuck_buf bits _degree trav term ->
  let b = 1 lsl group in
  let digits = bits / group in
  let is_alive v =
    Bigarray.Array1.unsafe_get words (v lsr 5) lsr (v land 31) land 1 <> 0
  in
  let neighbor cur slot =
    Int32.to_int
      (Bigarray.Array1.unsafe_get targets (Bigarray.Array1.unsafe_get offsets cur + slot))
  in
  let bump buf v =
    if Bigarray.Array1.dim buf > 0 then
      Bigarray.Array1.unsafe_set buf v (Bigarray.Array1.unsafe_get buf v + 1)
  in
  for k = 0 to n - 1 do
    let dst = Array.unsafe_get dsts k in
    let rec step cur hops =
      if cur = dst then begin
        bump term dst;
        Bigarray.Array1.unsafe_set hops_buf k hops;
        Bigarray.Array1.unsafe_set stuck_buf k (-1)
      end
      else begin
        let leading =
          match Idspace.Digit.highest_differing ~bits ~group cur dst with
          | Some level -> level
          | None -> assert false
        in
        let rec try_level level =
          if level > digits then None
          else begin
            let own = Idspace.Digit.get ~bits ~group cur level in
            let want = Idspace.Digit.get ~bits ~group dst level in
            if own = want then try_level (level + 1)
            else begin
              let rank = (want - own + b) mod b in
              let candidate = neighbor cur (((level - 1) * (b - 1)) + rank - 1) in
              if is_alive candidate then Some candidate else try_level (level + 1)
            end
          end
        in
        match try_level leading with
        | None ->
            bump term cur;
            Bigarray.Array1.unsafe_set hops_buf k hops;
            Bigarray.Array1.unsafe_set stuck_buf k cur
        | Some next ->
            bump trav next;
            step next (hops + 1)
      end
    in
    step (Array.unsafe_get srcs k) 0
  done

let () =
  Routing.Route_batch.register_custom_lane ~family (fun params ->
      Routing.Route_batch.Block (block ~group:(group_of params)))

(* --- sparse overlay -------------------------------------------------------

   Digit generalisation of the sparse prefix buckets: the (level,
   rank) contact of node v is a uniformly random occupied id matching
   v's digits above [level] and holding digit own+rank there, or
   [missing] when that digit subtree is empty. The sparse router is
   the same greedy walk on identifiers with missing slots skipped. *)

let () =
  Overlay.Sparse.register_custom_builder ~family (fun t rng params ->
      let bits = Overlay.Sparse.bits t in
      let group = group_of params in
      let b = 1 lsl group in
      let digits = bits / group in
      let entry v i =
        let id_v = Overlay.Sparse.id_of t v in
        let level = (i / (b - 1)) + 1 in
        let rank = (i mod (b - 1)) + 1 in
        let own = Idspace.Digit.get ~bits ~group id_v level in
        let pattern = Idspace.Digit.set ~bits ~group id_v level ((own + rank) mod b) in
        let lo, hi = Overlay.Sparse.prefix_range t ~pattern ~prefix_len:(level * group) in
        if hi <= lo then Overlay.Sparse.missing else lo + Prng.Splitmix.int rng (hi - lo)
      in
      (digits * (b - 1), entry))

let sparse_route ?(on_hop = ignore) overlay ~alive ~src ~dst =
  let bits = Overlay.Sparse.bits overlay in
  let group = group_of (params_of (Overlay.Sparse.geometry overlay)) in
  let b = 1 lsl group in
  let digits = bits / group in
  let id_dst = Overlay.Sparse.id_of overlay dst in
  let targets = Overlay.Sparse.targets overlay in
  let degree = Overlay.Sparse.degree overlay in
  let rec step cur hops =
    if cur = dst then Routing.Outcome.Delivered { hops }
    else begin
      let id_cur = Overlay.Sparse.id_of overlay cur in
      let leading =
        match Idspace.Digit.highest_differing ~bits ~group id_cur id_dst with
        | Some level -> level
        | None -> assert false (* ids are distinct *)
      in
      let rec try_level level =
        if level > digits then None
        else begin
          let own = Idspace.Digit.get ~bits ~group id_cur level in
          let want = Idspace.Digit.get ~bits ~group id_dst level in
          if own = want then try_level (level + 1)
          else begin
            let slot = ((level - 1) * (b - 1)) + ((want - own + b) mod b) - 1 in
            let candidate = Int32.to_int targets.{(cur * degree) + slot} in
            if candidate <> Overlay.Sparse.missing && Overlay.Failure.get alive candidate
            then Some candidate
            else try_level (level + 1)
          end
        end
      in
      match try_level leading with
      | None -> Routing.Outcome.Dropped { hops; stuck_at = cur }
      | Some next ->
          on_hop next;
          step next (hops + 1)
    end
  in
  step src 0

let () = Routing.Sparse_router.register_custom ~family sparse_route

(* Replica placement follows the digit/XOR proximity structure, like
   Kademlia (at h = 2 the two coincide exactly). *)
let () = Storage.Placement.register_custom_style ~family `Closest

(* --- churn ----------------------------------------------------------------

   Every slot is re-drawable (no positional near links): a repair
   redraws the entry with exactly the table builder's draw (one
   Prng.int per attempt), so a fully-repaired row is distributed like
   a fresh one. Maintenance redraws dead entries in place, like
   Symphony shortcut repair. The churn-to-static bridge evaluates the
   family's own spec at q = measured staleness. *)

let () =
  Sim.Churn_profile.register ~family (fun params ~bits ->
      let group = group_of params in
      let b = 1 lsl group in
      let size = 1 lsl bits in
      {
        Sim.Churn_profile.near_slots = 0;
        redraw =
          (fun rng ~v ~slot ->
            let level = (slot / (b - 1)) + 1 in
            let rank = (slot mod (b - 1)) + 1 in
            let own = Idspace.Digit.get ~bits ~group v level in
            let stepped = Idspace.Digit.set ~bits ~group v level ((own + rank) mod b) in
            let suffix = Prng.Splitmix.int rng size in
            Idspace.Id.with_suffix ~bits stepped ~prefix_len:(level * group) ~suffix);
        maintained = true;
        prediction =
          (fun ~bits ~stale ~stale_near:_ ~stale_shortcut:_ ->
            Rcm.Engine.routability (Rcm.Digits.xor_spec ~group) ~d:bits ~q:stale);
      })

(* --- descriptor -----------------------------------------------------------

   Last: the descriptor rides into the CLI listing, the README/docs
   drift check and every registry-driven test matrix. *)

let () =
  Geom.register
    {
      Geom.default = geometry ();
      builtin = false;
      example = "record:h=4";
      degree = "(h-1) d / log2 h";
      hops = "O(log_h N)";
      analysis = true;
      chain = true;
      batch_block = true;
      sparse = true;
      session_churn = true;
    }

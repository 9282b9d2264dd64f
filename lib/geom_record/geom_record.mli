(** ReCord — base-h recursive-ring digit routing (Zeng & Hsu's
    generalisation of randomized Chord), the first geometry plugged in
    through the registry path.

    Linking this library (it is built with [-linkall]) registers the
    ["record"] family with every layer's hook registry: parsing and
    slugs ({!Rcm.Geometry}), the RCM closed form and routing chain
    ({!Rcm.Model} — the spec is {!Rcm.Digits.xor_spec} at
    [group = log2 h]), full and sparse table builders
    ({!Overlay.Table}, {!Overlay.Sparse}), scalar, batch-lane and
    sparse routers ({!Routing}), churn behaviour
    ({!Sim.Churn_profile}), replica placement ({!Storage.Placement})
    and the descriptor registry ({!Geom}). No code outside
    [lib/geom_record] pattern-matches the family; DESIGN.md's "Adding
    a geometry" section walks through this module as the worked
    example of the contract.

    The single parameter [h] (default 2, a power of two in 2..1024) is
    the digit base: identifiers are read as [d / log2 h] base-h
    digits, nodes keep one randomized contact per (digit level,
    alternative value) — degree [(h-1) · d / log2 h] — and routing
    greedily corrects the most significant differing digit with
    XOR-style fallback. At [h = 2] the family reproduces the built-in
    [xor] geometry draw-for-draw (pinned by the conformance tests). *)


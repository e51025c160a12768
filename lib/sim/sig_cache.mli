(** Per-problem fault-signature arena.

    Every diagnosis phase — the explanation matrix, the single-fault and
    dictionary baselines, and each campaign trial — fault-simulates the
    same stuck lines against the same circuit and test set.  The result
    of one such simulation depends only on [(netlist, pattern set,
    site, polarity)], never on the datalog, so a session that expects
    many diagnoses computes the whole fault pool once and keeps it here.

    A signature is the flat triple list
    [(block index, PO position, diff word); ...] exactly as
    {!Fault_sim.iter_po_diffs} reports it block by block: blocks
    ascending, PO positions ascending within a block, only non-zero
    masked diff words.  That compact form replays into an explanation
    matrix without touching the simulator and expands into the
    per-output {!Bitvec.t} signatures the baselines consume.

    An arena is immutable (DESIGN.md §12): one contiguous bit-packed
    byte slab with a flat per-key offset index ([key ~site ~stuck] is
    the array index — no hashing) and a presence bitmap.  It is built
    once, by {!of_entries} from a whole-pool sweep or by
    {!load_frozen} from a disk snapshot, and never written again, so any
    number of domains read it with no synchronization at all.  Reads
    touch no counters; [Diag.Session] counts the probes it makes
    (["cache.frozen_hits"], ["cache.misses"]).  Building or loading an
    arena adds its resident size to ["cache.frozen_bytes"]. *)

type t

val key : site:Netlist.net -> stuck:bool -> int
(** Canonical key of a stuck fault ([2*site + stuck]).  Callers that
    collapse equivalence classes key by the class representative so all
    phases share one entry per class. *)

val of_entries : Netlist.t -> Pattern.t -> (int * int array) array -> t
(** Pack [(key, triples)] entries into an arena for this problem.  Keys
    outside [0, 2 * num_nets) are ignored; on a duplicate key the last
    entry wins (values are pure functions of the key, so the choice is
    cosmetic). *)

val mem : t -> int -> bool
(** Whether the arena holds an entry for the key — from the presence
    bitmap alone, without decoding.  A key can hold zero triples (a
    fault that diffs nowhere). *)

val iter_frozen : t -> int -> (int -> int -> int -> unit) -> unit
(** Stream one key's triples as [f block po_word diff_word] calls, in
    canonical order, decoding straight out of the slab with no
    allocation.  Raises [Invalid_argument] unless {!mem} holds. *)

val find : t -> int -> int array option
(** A key's triples, decoded into a fresh array. *)

val frozen_bytes : t -> int
(** Resident footprint in bytes (slab + offset index + presence
    bitmap). *)

val frozen_boxed_bytes : t -> int
(** What a boxed representation ([int array option array]) of the same
    entries would occupy, in bytes — the packing ratio's denominator,
    quoted by [bench store]. *)

(** {1 Disk snapshots}

    The arena is position-independent bytes, so it doubles as an
    on-disk format: a volume fleet pays the whole-pool sweep once per
    (netlist, pattern set) and every later process adopts the arena
    with zero simulation.  Files are named by a digest of the netlist
    structure and validated against a header carrying the encode
    version and a digest of (netlist structure, pattern set) — plus a
    content hash over the body — so a snapshot either reproduces the
    live sweep byte for byte or is rejected (counter ["store.rejects"])
    and the caller falls back to sweeping.  Counters: ["store.saves"],
    ["store.loads"], ["store.rejects"]. *)

val save_frozen : dir:string -> t -> bool
(** Write the arena under [dir], creating it and any missing parent
    directories, atomically (temp file + rename).  True bumps
    ["store.saves"]; false means the write failed. *)

val load_frozen : ?keys:int array -> dir:string -> Netlist.t -> Pattern.t -> t option
(** Read and validate this problem's snapshot from [dir] — no
    simulation.  [None] when no file exists (a cold fleet, not counted)
    or validation rejected it (truncation, foreign magic, stale encode
    version, problem-digest mismatch, body corruption, or an arena
    lacking one of [keys] — the keys the caller will probe, default
    none — each bumping ["store.rejects"]).  [Some] bumps
    ["store.loads"]. *)

val store_path : dir:string -> Netlist.t -> string
(** The snapshot file {!save_frozen}/{!load_frozen} use for this
    netlist under [dir] (exposed for tests and tooling). *)

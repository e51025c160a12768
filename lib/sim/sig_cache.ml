(* Immutable bit-packed arena of per-fault PO-diff triples for one
   (netlist, pattern set) problem.  See the interface for the contract.

   A session that expects many diagnoses builds one arena up front (a
   whole-pool sweep, [of_entries]) or adopts one from disk
   ([load_frozen]); a session that does not holds none and simulates
   directly.  Nothing here is mutable after construction, so readers on
   any domain need no synchronization. *)

(* Resident footprint of every arena built or loaded (slab + offset
   index + presence bitmap, in bytes), so `--stats` shows what the
   session holds. *)
let c_frozen_bytes = Obs.counter "cache.frozen_bytes"

(* Snapshot store traffic: arenas written to disk, arenas adopted from
   disk, and candidate files rejected by validation (truncation, header
   corruption, digest or hash mismatch, stale encode version, a key the
   caller needs missing).  A reject is
   never an error — the caller falls back to a live sweep — but a fleet
   where rejects dominate loads has a stale or misconfigured store
   directory, which is exactly what these counters surface. *)
let c_store_saves = Obs.counter "store.saves"
let c_store_loads = Obs.counter "store.loads"
let c_store_rejects = Obs.counter "store.rejects"

(* [slab] holds every key's triples encoded back to back; key [k]'s
   bytes are [slab[offs.(k) .. offs.(k+1))] and bit [k] of [present]
   says whether the key has an entry at all (a key can legitimately have
   zero triples — a fault that diffs nowhere — which the offsets alone
   cannot distinguish from absence).  [slab] carries [pad] zero bytes
   past [offs.(nkeys)] so the decoder may read a whole 8-byte word at
   any triple's word position.  Compared with a boxed
   [int array option array] (three boxed words per triple plus a header
   per key), the packed form costs a decode per read but shrinks the
   resident footprint 2-3x — and, being position-independent bytes, it
   is exactly what the disk snapshot writes and reads. *)
type t = {
  net : Netlist.t;
  pats : Pattern.t;
  slab : Bytes.t;
  offs : int array; (* nkeys + 1 byte offsets into [slab], monotone *)
  present : Bytes.t; (* nkeys-bit membership bitmap *)
  arena_bytes : int; (* slab + index + bitmap, the resident footprint *)
  boxed_bytes : int; (* what a boxed representation would cost *)
}

let key ~site ~stuck = (2 * site) + Bool.to_int stuck
let num_keys net = 2 * Netlist.num_nets net
let word_bytes = Sys.word_size / 8
let pad = 8

(* --- Codec -------------------------------------------------------- *)

(* LEB128 over the 63-bit unsigned view of an OCaml int, for counts,
   index lengths and the small block/PO deltas. *)
let put_uvarint buf v =
  let v = ref v in
  while !v lsr 7 <> 0 do
    Buffer.add_char buf (Char.unsafe_chr (!v land 0x7f lor 0x80));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr (!v land 0x7f))

(* Zigzag for the (normally non-negative, tiny) block/PO deltas: the
   canonical triple order makes them >= 0, but the codec must not turn a
   non-canonical entry — nothing forbids one — into corruption. *)
let put_svarint buf v = put_uvarint buf ((v lsl 1) lxor (v asr 62))

(* Decode one unsigned varint at [!pos], advancing it.  Bounds are the
   caller's job: [load_frozen] walks every range before an arena
   is built from it. *)
let get_uvarint bytes pos =
  let v = ref 0 and shift = ref 0 and cont = ref true in
  while !cont do
    let b = Char.code (Bytes.unsafe_get bytes !pos) in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    cont := b land 0x80 <> 0
  done;
  !v

let get_svarint bytes pos =
  let u = get_uvarint bytes pos in
  (u lsr 1) lxor (-(u land 1))

(* Diff words are dense — a fault near an output flips about half the
   patterns — so they are stored as a length byte [l] (0..8) and the
   word's low [l] bytes, little-endian, over the 63-bit unsigned view
   ([lsr] pulls the tag-free bit pattern down regardless of sign, so
   words with bit 62 set round-trip exactly).  That is no larger than a
   varint and decodes as one 8-byte read and a mask instead of a loop
   per 7 bits: replaying rows out of the slab is the bulk of a
   diagnosis on a prewarmed session. *)
let put_word buf w =
  let l = ref 0 in
  while !l < 8 && w lsr (8 * !l) <> 0 do
    incr l
  done;
  Buffer.add_char buf (Char.unsafe_chr !l);
  for i = 0 to !l - 1 do
    Buffer.add_char buf (Char.unsafe_chr ((w lsr (8 * i)) land 0xff))
  done

(* [Int64.to_int] keeps the low 63 bits, which is the whole value for
   [l = 8]. *)
let word_masks = Array.init 9 (fun l -> if l = 8 then -1 else (1 lsl (8 * l)) - 1)

(* One key's triples, encoded as [uvarint count] then per triple
   [svarint d_block; svarint d_po; word].  The block index is
   delta-coded against the previous triple's; the PO index is
   delta-coded within a block (reset at each block change), exploiting
   the canonical order — blocks ascending, POs ascending within a
   block — for one-byte deltas. *)
let encode_triples buf (triples : int array) =
  let n = Array.length triples / 3 in
  put_uvarint buf n;
  let prev_bi = ref 0 and prev_oi = ref (-1) in
  for i = 0 to n - 1 do
    let bi = triples.(3 * i) and oi = triples.((3 * i) + 1) and w = triples.((3 * i) + 2) in
    let dbi = bi - !prev_bi in
    if dbi <> 0 then prev_oi := -1;
    put_svarint buf dbi;
    put_svarint buf (oi - !prev_oi);
    put_word buf w;
    prev_bi := bi;
    prev_oi := oi
  done

(* Stream the [n] triples that follow a key's count at [!pos] as
   [f block po_word diff_word] calls, undoing the delta coding.  The
   8-byte read may run past the word into the next triple or the
   slab's [pad]; the mask drops those bytes. *)
let decode_triples bytes pos n f =
  let prev_bi = ref 0 and prev_oi = ref (-1) in
  for _ = 1 to n do
    let dbi = get_svarint bytes pos in
    if dbi <> 0 then prev_oi := -1;
    let bi = !prev_bi + dbi in
    let oi = !prev_oi + get_svarint bytes pos in
    let l = Char.code (Bytes.unsafe_get bytes !pos) in
    let w = Int64.to_int (Bytes.get_int64_le bytes (!pos + 1)) land word_masks.(l) in
    pos := !pos + 1 + l;
    f bi oi w;
    prev_bi := bi;
    prev_oi := oi
  done

let bit_set bytes k = Char.code (Bytes.unsafe_get bytes (k lsr 3)) land (1 lsl (k land 7)) <> 0

let bit_mark bytes k =
  Bytes.unsafe_set bytes (k lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bytes (k lsr 3)) lor (1 lsl (k land 7))))

let mem t k = k >= 0 && k < Array.length t.offs - 1 && bit_set t.present k

(* Streaming decode: the explanation matrix replays a thousand-odd rows
   per build, and materialising an [int array] per row (as [find] must)
   would cost more than the decode itself. *)
let iter_frozen t k f =
  if not (mem t k) then invalid_arg "Sig_cache.iter_frozen: key not in the arena";
  let pos = ref t.offs.(k) in
  decode_triples t.slab pos (get_uvarint t.slab pos) f

let find t k =
  if not (mem t k) then None
  else begin
    let pos = ref t.offs.(k) in
    let n = get_uvarint t.slab pos in
    let triples = Array.make (3 * n) 0 in
    let i = ref 0 in
    decode_triples t.slab pos n (fun bi oi w ->
        triples.(!i) <- bi;
        triples.(!i + 1) <- oi;
        triples.(!i + 2) <- w;
        i := !i + 3);
    Some triples
  end

let frozen_bytes t = t.arena_bytes
let frozen_boxed_bytes t = t.boxed_bytes

let make net pats ~slab ~offs ~present ~boxed_bytes =
  let nkeys = Array.length offs - 1 in
  let arena_bytes = Bytes.length slab + ((nkeys + 1) * word_bytes) + Bytes.length present in
  if Obs.enabled () then Obs.add c_frozen_bytes arena_bytes;
  { net; pats; slab; offs; present; arena_bytes; boxed_bytes }

let of_entries net pats entries =
  let nkeys = num_keys net in
  let by_key = Array.make nkeys None in
  Array.iter (fun (k, v) -> if k >= 0 && k < nkeys then by_key.(k) <- Some v) entries;
  let buf = Buffer.create 4096 in
  let offs = Array.make (nkeys + 1) 0 in
  let present = Bytes.make ((nkeys + 7) / 8) '\000' in
  let boxed = ref (nkeys * word_bytes) in
  for k = 0 to nkeys - 1 do
    offs.(k) <- Buffer.length buf;
    match by_key.(k) with
    | None -> ()
    | Some triples ->
      bit_mark present k;
      encode_triples buf triples;
      (* One boxed entry was a [Some] block (2 words) plus the triple
         array (header word + payload). *)
      boxed := !boxed + ((3 + Array.length triples) * word_bytes)
  done;
  offs.(nkeys) <- Buffer.length buf;
  Buffer.add_string buf (String.make pad '\000');
  make net pats ~slab:(Buffer.to_bytes buf) ~offs ~present ~boxed_bytes:!boxed

(* --- Disk snapshot store -------------------------------------------- *)

(* Bump when the arena encoding or the file layout changes: a snapshot
   written by an older binary must be rejected, not misdecoded. *)
let encode_version = 2

let magic = "MDDSIGST"

(* Identity of the problem a snapshot answers for: a digest over the
   netlist structure (gate kinds, fanin adjacency, PO list — names are
   irrelevant to signatures) and the exact pattern set.  Anything that
   could change one cached triple changes this digest, so a loaded
   arena is byte-equivalent to a live sweep or it is rejected. *)
let problem_digest net pats =
  let buf = Buffer.create (1 lsl 16) in
  let add v = Buffer.add_int64_le buf (Int64.of_int v) in
  let add_arr a = Array.iter add a in
  add (Netlist.num_nets net);
  add (Netlist.num_pis net);
  add (Netlist.num_pos net);
  add_arr (Netlist.gate_codes net);
  add_arr (Netlist.fanin_offsets net);
  add_arr (Netlist.fanin_csr net);
  add_arr (Netlist.pos net);
  add (Pattern.count pats);
  add (Pattern.npis pats);
  List.iter
    (fun (b : Pattern.block) ->
      add b.Pattern.base;
      add b.Pattern.width;
      add_arr b.Pattern.pi_words)
    (Pattern.blocks pats);
  Digest.bytes (Buffer.to_bytes buf)

(* One snapshot file per netlist structure: keyed on the structure-only
   digest, so re-running with a different pattern set or encode version
   finds the *same* file and rejects it via the header (an observable
   [store.rejects], then an overwrite on the next save) instead of
   silently accumulating stale siblings. *)
let store_path ~dir net =
  let buf = Buffer.create 4096 in
  let add v = Buffer.add_int64_le buf (Int64.of_int v) in
  add (Netlist.num_nets net);
  Array.iter add (Netlist.gate_codes net);
  Array.iter add (Netlist.fanin_csr net);
  let hex = Digest.to_hex (Digest.bytes (Buffer.to_bytes buf)) in
  Filename.concat dir ("sig-" ^ String.sub hex 0 12 ^ ".mddsig")

(* File layout, all integers little-endian int64:

     magic (8 bytes) | encode_version | problem digest (16 bytes)
     | content hash | nkeys | index_len | slab_len
     | packed index (index_len bytes) | present bitmap | slab

   The packed index is the offset array delta-varint-coded (offsets are
   monotone, so deltas are the per-key byte lengths).  The content hash
   covers everything after the header — index and bitmap, then the slab
   chained on — so a flipped byte anywhere in the body is as loudly
   rejected as a flipped header byte.  The slab's in-memory [pad] is not
   written; a load reads the slab straight into a padded buffer. *)
let header_len = 8 + 8 + 16 + (4 * 8)

(* Content hash of [len] bytes at [off]: one multiply and xorshift per
   8-byte word.  Every step is a bijection of the running state for a
   given word, and a given state for the word's low 63 bits, so any
   single changed word — any flipped byte — changes the result; bit 63
   of each word, which an OCaml int cannot hold, is folded in on its
   own.  Like any checksum stored beside the data it guards against
   accidental corruption, not forgery — and it runs at several times
   the speed of MD5 on a restart's critical path. *)
let mix h x =
  let h = (h lxor x) * 0x100000001b3 in
  h lxor (h lsr 29)

let body_hash ?(seed = 0) b off len =
  let h = ref (mix seed len) and i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let x = Bytes.get_int64_le b !i in
    h := mix !h (Int64.to_int x) lxor Int64.to_int (Int64.shift_right_logical x 63);
    i := !i + 8
  done;
  while !i < stop do
    h := mix !h (Char.code (Bytes.get b !i));
    incr i
  done;
  !h

(* [mkdir -p]: a store directory nested under a path that does not
   exist yet must still be created, or every restart silently sweeps
   again.  A concurrent creator winning the race is not an error. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let save_frozen ~dir t =
  let nkeys = Array.length t.offs - 1 in
  let index_buf = Buffer.create (nkeys + 1) in
  for k = 0 to nkeys - 1 do
    put_uvarint index_buf (t.offs.(k + 1) - t.offs.(k))
  done;
  Buffer.add_bytes index_buf t.present;
  let prefix = Buffer.to_bytes index_buf in
  let slab_len = t.offs.(nkeys) in
  let header = Bytes.create header_len in
  Bytes.blit_string magic 0 header 0 8;
  Bytes.set_int64_le header 8 (Int64.of_int encode_version);
  Bytes.blit_string (problem_digest t.net t.pats) 0 header 16 16;
  let seed = body_hash prefix 0 (Bytes.length prefix) in
  Bytes.set_int64_le header 32 (Int64.of_int (body_hash ~seed t.slab 0 slab_len));
  Bytes.set_int64_le header 40 (Int64.of_int nkeys);
  Bytes.set_int64_le header 48 (Int64.of_int (Bytes.length prefix - Bytes.length t.present));
  Bytes.set_int64_le header 56 (Int64.of_int slab_len);
  let path = store_path ~dir t.net in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  try
    mkdir_p dir;
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_bytes oc header;
        output_bytes oc prefix;
        output oc t.slab 0 slab_len);
    (* Publish by rename: a concurrent loader sees the old complete
       file or the new complete file, never a half-written one. *)
    Sys.rename tmp path;
    if Obs.enabled () then Obs.incr c_store_saves;
    true
  with Sys_error _ | Unix.Unix_error _ ->
    (try Sys.remove tmp with Sys_error _ -> ());
    false

exception Invalid_snapshot

(* Bounds-checked varint read for untrusted bytes: the unsafe decoder
   above is only ever pointed at ranges this function has fully walked
   first. *)
let safe_uvarint bytes pos limit =
  let v = ref 0 and shift = ref 0 and cont = ref true in
  while !cont do
    (* [> 62]: a 9-byte group ends at shift 56; any continuation past
       shift 62 would need an [lsl] of 63+, unspecified on native ints. *)
    if !pos >= limit || !shift > 62 then raise Invalid_snapshot;
    let b = Char.code (Bytes.get bytes !pos) in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    cont := b land 0x80 <> 0
  done;
  !v

(* Walk one key's encoding without allocating, returning its triple
   count; raises [Invalid_snapshot] unless the stream fills
   [start, limit) exactly.  That is all the unchecked decoder needs for
   memory safety: every varint it scans ends inside the range, and
   every word length is at most 8, so its 8-byte word reads stay inside
   the slab plus [pad].  Overlong varints merely yield unspecified
   {e values} and are reachable only by a file forged to pass the
   digest and the hash, whose author chooses the values anyway; every
   downstream consumer indexes with bounds-checked reads. *)
let walk_key bytes start limit =
  let pos = ref start in
  let n = safe_uvarint bytes pos limit in
  if n < 0 || n > (limit - !pos) / 3 then raise Invalid_snapshot;
  for _ = 1 to n do
    (* Both deltas are almost always one byte each. *)
    let p = !pos in
    if
      p + 2 < limit
      && (Char.code (Bytes.unsafe_get bytes p) lor Char.code (Bytes.unsafe_get bytes (p + 1)))
         land 0x80
         = 0
    then pos := p + 2
    else begin
      ignore (safe_uvarint bytes pos limit : int);
      ignore (safe_uvarint bytes pos limit : int)
    end;
    if !pos >= limit then raise Invalid_snapshot;
    let l = Char.code (Bytes.get bytes !pos) in
    if l > 8 then raise Invalid_snapshot;
    pos := !pos + 1 + l
  done;
  if !pos <> limit then raise Invalid_snapshot;
  n

let load_frozen ?(keys = [||]) ~dir net pats =
  match open_in_bin (store_path ~dir net) with
  | exception Sys_error _ -> None (* no file: a cold fleet, not a rejection *)
  | ic -> (
    let read n =
      let b = Bytes.create n in
      really_input ic b 0 n;
      b
    in
    try
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let file_len = in_channel_length ic in
          if file_len < header_len then raise Invalid_snapshot;
          let header = read header_len in
          if Bytes.sub_string header 0 8 <> magic then raise Invalid_snapshot;
          if Bytes.get_int64_le header 8 <> Int64.of_int encode_version then
            raise Invalid_snapshot;
          if Bytes.sub_string header 16 16 <> problem_digest net pats then
            raise Invalid_snapshot;
          let nkeys = Int64.to_int (Bytes.get_int64_le header 40) in
          let index_len = Int64.to_int (Bytes.get_int64_le header 48) in
          let slab_len = Int64.to_int (Bytes.get_int64_le header 56) in
          if nkeys <> num_keys net then raise Invalid_snapshot;
          let bitmap_len = (nkeys + 7) / 8 in
          if
            index_len < 0 || slab_len < 0 || index_len > file_len || slab_len > file_len
            || file_len <> header_len + index_len + bitmap_len + slab_len
          then raise Invalid_snapshot;
          let prefix = read (index_len + bitmap_len) in
          (* The slab lands in its padded buffer directly: no second
             copy of a multi-megabyte arena on the restart path. *)
          let slab = Bytes.create (slab_len + pad) in
          Bytes.fill slab slab_len pad '\000';
          really_input ic slab 0 slab_len;
          let seed = body_hash prefix 0 (Bytes.length prefix) in
          if
            Int64.of_int (body_hash ~seed slab 0 slab_len) <> Bytes.get_int64_le header 32
          then raise Invalid_snapshot;
          let pos = ref 0 in
          let offs = Array.make (nkeys + 1) 0 in
          for k = 0 to nkeys - 1 do
            let len = safe_uvarint prefix pos index_len in
            if len < 0 || offs.(k) > slab_len - len then raise Invalid_snapshot;
            offs.(k + 1) <- offs.(k) + len
          done;
          if !pos <> index_len || offs.(nkeys) <> slab_len then raise Invalid_snapshot;
          let present = Bytes.sub prefix index_len bitmap_len in
          (* A snapshot swept for a smaller pool than the caller probes
             (a pruned session's class representatives, loaded by an
             unpruned one) would miss on every row it lacks, die after
             die: it is as unusable as a stale one. *)
          Array.iter
            (fun k ->
              if k < 0 || k >= nkeys || not (bit_set present k) then raise Invalid_snapshot)
            keys;
          (* Walk every key's stream once, bounds-checked: a snapshot
             that passed the digests but whose streams overrun their
             offset range must be rejected here, at load — the readers
             decode unchecked and must never see it.  An absent key with
             a non-empty range (or vice versa, a present key whose range
             cannot hold its count) is equally malformed. *)
          let boxed = ref (nkeys * word_bytes) in
          for k = 0 to nkeys - 1 do
            if bit_set present k then
              boxed := !boxed + ((3 + (3 * walk_key slab offs.(k) offs.(k + 1))) * word_bytes)
            else if offs.(k) <> offs.(k + 1) then raise Invalid_snapshot
          done;
          let t = make net pats ~slab ~offs ~present ~boxed_bytes:!boxed in
          if Obs.enabled () then Obs.incr c_store_loads;
          Some t)
    with
    | Invalid_snapshot | Invalid_argument _ | End_of_file ->
      if Obs.enabled () then Obs.incr c_store_rejects;
      None
    | Sys_error _ -> None)

type t = { len : int; words : int array }

let word_bits = 63

let nwords len = (len + word_bits - 1) / word_bits

let create len =
  assert (len >= 0);
  { len; words = Array.make (max 1 (nwords len)) 0 }

let length t = t.len

let check_index t i = if i < 0 || i >= t.len then invalid_arg "Bitvec: index out of bounds"

let get t i =
  check_index t i;
  t.words.(i / word_bits) lsr (i mod word_bits) land 1 = 1

let set t i b =
  check_index t i;
  let w = i / word_bits and m = 1 lsl (i mod word_bits) in
  if b then t.words.(w) <- t.words.(w) lor m else t.words.(w) <- t.words.(w) land lnot m

(* Mask of valid bits in the final word, so that whole-word operations
   never create phantom set bits past [len]. *)
let last_mask t =
  let r = t.len mod word_bits in
  if r = 0 && t.len > 0 then -1
  else if t.len = 0 then 0
  else (1 lsl r) - 1

let fill t b =
  let v = if b then -1 else 0 in
  Array.fill t.words 0 (Array.length t.words) v;
  if b then begin
    let n = Array.length t.words in
    t.words.(n - 1) <- t.words.(n - 1) land last_mask t
  end

let num_words t = Array.length t.words
let word t i = t.words.(i)

let copy t = { len = t.len; words = Array.copy t.words }

let equal a b = a.len = b.len && a.words = b.words

let popcount_word w =
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  go 0 w

(* Index of the lowest set bit of a non-zero word: isolate it, convert
   the power of two to a float (exact for every bit, including the
   sign bit, which converts to -2^62) and read the exponent field.
   Branch-free: the matrix fill calls this once per error bit, where a
   binary search over the word mispredicts on nearly every call. *)
let ctz_word w =
  let b = w land -w in
  (Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float (Float.of_int b)) 52)
   land 0x7ff)
  - 1023

let popcount t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let check_same a b = if a.len <> b.len then invalid_arg "Bitvec: length mismatch"

let union_into ~dst src =
  check_same dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let inter_into ~dst src =
  check_same dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let diff_into ~dst src =
  check_same dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land lnot src.words.(i)
  done

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let iter_set t f =
  for wi = 0 to Array.length t.words - 1 do
    let w = ref t.words.(wi) in
    while !w <> 0 do
      f ((wi * word_bits) + ctz_word !w);
      w := !w land (!w - 1)
    done
  done

let to_list t =
  let acc = ref [] in
  iter_set t (fun i -> acc := i :: !acc);
  List.rev !acc

let of_list len idxs =
  let t = create len in
  List.iter (fun i -> set t i true) idxs;
  t

let pp ppf t =
  for i = 0 to t.len - 1 do
    Format.pp_print_char ppf (if get t i then '1' else '0')
  done

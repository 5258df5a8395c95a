(* The four xoshiro256** words live unboxed in one 32-byte buffer
   (little-endian, s0 at offset 0 up to s3 at offset 24).  A record of
   mutable [int64] fields boxes every word it stores, so each draw
   allocated four fresh boxes; reading the words into locals lets the
   compiler keep them unboxed, and only the returned draw is boxed. *)
type t = Bytes.t

let get t i = Bytes.get_int64_le t (8 * i)
let set t i v = Bytes.set_int64_le t (8 * i) v

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3;
  t

(* SplitMix64: used only for seeding and stream splitting. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9e3779b97f4a7c15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed =
  let st = ref seed in
  let s0 = splitmix_next st in
  let s1 = splitmix_next st in
  let s2 = splitmix_next st in
  let s3 = splitmix_next st in
  (* xoshiro must not start in the all-zero state; SplitMix64 outputs zero
     for at most one of the four draws, so this is already impossible, but
     guard anyway. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    of_words 1L 2L 3L 4L
  else of_words s0 s1 s2 s3

let create seed = of_seed64 (Int64.of_int seed)

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256** *)
let bits64 t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set t 0 s0;
  set t 1 s1;
  set t 2 (logxor s2 tmp);
  set t 3 (rotl s3 45);
  result

let split t = of_seed64 (bits64 t)

let int_below t n =
  if n <= 0 then invalid_arg "Prng.int_below: bound must be positive";
  if n land (n - 1) = 0 then
    (* Power of two: mask the top bits. *)
    Int64.to_int (Int64.shift_right_logical (bits64 t) 1) land (n - 1)
  else begin
    (* Rejection sampling over 62 bits to avoid modulo bias. *)
    let bound = Int64.of_int n in
    let max62 = Int64.shift_right_logical Int64.minus_one 2 in
    let limit = Int64.sub max62 (Int64.rem max62 bound) in
    let rec draw () =
      let v = Int64.shift_right_logical (bits64 t) 2 in
      if v >= limit then draw () else Int64.to_int (Int64.rem v bound)
    in
    draw ()
  end

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int_below t (hi - lo + 1)

let float_unit t =
  let v = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float v *. 0x1.0p-53

let bernoulli t p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Prng.bernoulli: probability outside [0, 1]";
  if p = 0.0 then false else if p = 1.0 then true else float_unit t < p

let fill_bytes t buf =
  let n = Bytes.length buf in
  let i = ref 0 in
  while !i < n do
    (* Split the draw into untagged ints up front — an [Int64.to_int]
       pair instead of a boxed shift per byte; the byte layout (least
       significant byte first) is unchanged. *)
    let v = bits64 t in
    let lo = Int64.to_int v (* bits 0-62 *)
    and hi = Int64.to_int (Int64.shift_right_logical v 56) (* bits 56-63 *) in
    let take = min 8 (n - !i) in
    for j = 0 to take - 1 do
      let byte = if j = 7 then hi land 0xff else (lo lsr (j * 8)) land 0xff in
      Bytes.unsafe_set buf (!i + j) (Char.unsafe_chr byte)
    done;
    i := !i + take
  done

type state = { c0 : int64; c1 : int64; c2 : int64; c3 : int64 }

let capture t = { c0 = get t 0; c1 = get t 1; c2 = get t 2; c3 = get t 3 }

let restore t s =
  set t 0 s.c0;
  set t 1 s.c1;
  set t 2 s.c2;
  set t 3 s.c3

let state_equal a b =
  Int64.equal a.c0 b.c0 && Int64.equal a.c1 b.c1 && Int64.equal a.c2 b.c2
  && Int64.equal a.c3 b.c3

let of_state s = of_words s.c0 s.c1 s.c2 s.c3

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* Determinism and distribution sanity for the simulation PRNG. *)

let test_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr same
  done;
  Alcotest.(check int) "different seeds diverge" 0 !same

let test_split_independent () =
  let parent = Prng.create 9 in
  let child1 = Prng.split parent in
  let child2 = Prng.split parent in
  Alcotest.(check bool) "children differ" false
    (Int64.equal (Prng.bits64 child1) (Prng.bits64 child2))

let test_int_below_bounds () =
  let rng = Prng.create 3 in
  for _ = 1 to 10_000 do
    let v = Prng.int_below rng 7 in
    if v < 0 || v >= 7 then Alcotest.fail "int_below out of range"
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int_below: bound must be positive")
    (fun () -> ignore (Prng.int_below rng 0))

let test_int_below_uniform () =
  let rng = Prng.create 11 in
  let n = 10 and draws = 100_000 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let v = Prng.int_below rng n in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int draws /. float_of_int n in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      if dev > 0.05 then
        Alcotest.failf "bucket %d deviates %.1f%% from uniform" i (100.0 *. dev))
    counts

let test_int_in () =
  let rng = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int_in rng ~lo:3 ~hi:5 in
    if v < 3 || v > 5 then Alcotest.fail "int_in out of range"
  done;
  Alcotest.(check int) "singleton range" 4 (Prng.int_in rng ~lo:4 ~hi:4);
  Alcotest.check_raises "empty range" (Invalid_argument "Prng.int_in: empty range")
    (fun () -> ignore (Prng.int_in rng ~lo:5 ~hi:4))

let test_float_unit () =
  let rng = Prng.create 13 in
  let sum = ref 0.0 in
  for _ = 1 to 100_000 do
    let f = Prng.float_unit rng in
    if not (f >= 0.0 && f < 1.0) then Alcotest.fail "float_unit out of [0,1)";
    sum := !sum +. f
  done;
  let mean = !sum /. 100_000.0 in
  if Float.abs (mean -. 0.5) > 0.01 then
    Alcotest.failf "float_unit mean %.4f far from 0.5" mean

let test_bernoulli () =
  let rng = Prng.create 17 in
  Alcotest.(check bool) "p=0 never" false (Prng.bernoulli rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Prng.bernoulli rng 1.0);
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Prng.bernoulli rng 0.01 then incr hits
  done;
  (* 1000 expected; allow 4 sigma (~126). *)
  if abs (!hits - 1000) > 130 then
    Alcotest.failf "bernoulli(0.01) hit %d times out of 100k" !hits

let test_bernoulli_rejects_out_of_range () =
  let rng = Prng.create 17 in
  let expect p =
    Alcotest.check_raises
      (Printf.sprintf "p=%g" p)
      (Invalid_argument "Prng.bernoulli: probability outside [0, 1]")
      (fun () -> ignore (Prng.bernoulli rng p))
  in
  expect 1.3;
  (* churn 0.8 + fail 0.5, the State.apply_churn regression *)
  expect (-0.1);
  expect Float.nan;
  expect Float.infinity

let test_fill_bytes () =
  let rng = Prng.create 19 in
  let b = Bytes.make 33 '\x00' in
  Prng.fill_bytes rng b;
  (* 33 zero bytes after filling would mean the filler is broken. *)
  Alcotest.(check bool) "not all zero" false
    (Bytes.for_all (fun c -> c = '\x00') b);
  let b2 = Bytes.make 33 '\x00' in
  Prng.fill_bytes (Prng.create 19) b2;
  Alcotest.(check bytes) "deterministic" b2
    (let b3 = Bytes.make 33 '\x00' in
     Prng.fill_bytes (Prng.create 19) b3;
     b3)

let test_shuffle () =
  let rng = Prng.create 23 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted;
  Alcotest.(check bool) "actually moved" false (a = Array.init 50 Fun.id)

(* Known answers recorded from the generator as first written: any
   change to the state representation must leave every stream
   bit-identical, or every golden pin downstream shifts. *)
let test_known_answers () =
  let first16 seed =
    let rng = Prng.create seed in
    List.init 16 (fun _ -> Prng.bits64 rng)
  in
  Alcotest.(check (list int64)) "seed 0"
    [
      0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L;
      0x6aa594f1262d2d2cL; 0xbba5ad4a1f842e59L; 0xffef8375d9ebcacaL;
      0x6c160deed2f54c98L; 0x8920ad648fc30a3fL; 0xdb032c0ba7539731L;
      0xeb3a475a3e749a3dL; 0x1d42993fa43f2a54L; 0x11361bf526a14bb5L;
      0x1b4f07a5ab3d8e9cL; 0xa7a3257f6986db7fL; 0x7efdaa95605dfc9cL;
      0x4bde97c0a78eaab8L;
    ]
    (first16 0);
  Alcotest.(check (list int64)) "seed 42"
    [
      0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L;
      0xecb8ad4703b360a1L; 0xfde6dc7fe2ec5e64L; 0xc50da53101795238L;
      0xb82154855a65ddb2L; 0xd99a2743ebe60087L; 0xc2e96e726e97647eL;
      0x9556615f775fbc3dL; 0xaeb53b340c103971L; 0x4a69db9873af8965L;
      0xcd0feda93006c6b6L; 0x52480865a4b42742L; 0xb60dec3bf2d887cdL;
      0xe0b55a68b96677faL;
    ]
    (first16 42);
  let parent = Prng.create 42 in
  let child = Prng.split parent in
  Alcotest.(check int64) "split child" 0x8ee445d14631c453L (Prng.bits64 child);
  Alcotest.(check int64) "split advances parent" 0x6104d9866d113a7eL
    (Prng.bits64 parent);
  let b = Bytes.create 16 in
  Prng.fill_bytes (Prng.create 42) b;
  Alcotest.(check string) "fill_bytes 16"
    "\x16\xc7\x2e\x0c\x2e\x0b\x78\x15\x7e\x3a\x11\x6d\x86\xd9\x04\x61"
    (Bytes.to_string b);
  let rng = Prng.create 42 in
  let f1 = Prng.float_unit rng in
  let f2 = Prng.float_unit rng in
  Alcotest.(check (float 0.0)) "float_unit 1" 0x1.5780b2e0c2ecp-4 f1;
  Alcotest.(check (float 0.0)) "float_unit 2" 0x1.84136619b444ep-2 f2

(* capture/restore is the checkpoint primitive: a generator restored
   from a captured state (or a fresh one built from it) must replay
   exactly the draw sequence the original produced. *)
let prop_capture_restore_replays =
  Testutil.prop ~count:300 "capture/restore replays the draw sequence"
    QCheck.(pair small_int (int_range 1 64))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      (* advance to an arbitrary mid-stream point before capturing *)
      for _ = 1 to n do
        ignore (Prng.int_below rng 1_000_000)
      done;
      let state = Prng.capture rng in
      let original = Array.init n (fun _ -> Prng.int_below rng 1_000_000) in
      Prng.restore rng state;
      let restored = Array.init n (fun _ -> Prng.int_below rng 1_000_000) in
      let detached = Prng.of_state state in
      let fresh = Array.init n (fun _ -> Prng.int_below detached 1_000_000) in
      Prng.state_equal state state
      && original = restored && original = fresh
      (* after replaying, the live generator sits at the same state as
         the detached copy *)
      && Prng.state_equal (Prng.capture rng) (Prng.capture detached))

let prop_int_below_in_range =
  Testutil.prop ~count:500 "int_below always in range"
    QCheck.(pair (int_range 1 1_000_000) small_int)
    (fun (bound, seed) ->
      let rng = Prng.create seed in
      let v = Prng.int_below rng bound in
      v >= 0 && v < bound)

let () =
  Alcotest.run "prng"
    [
      ( "unit",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
          Alcotest.test_case "split independence" `Quick test_split_independent;
          Alcotest.test_case "int_below bounds" `Quick test_int_below_bounds;
          Alcotest.test_case "int_below uniformity" `Quick test_int_below_uniform;
          Alcotest.test_case "int_in" `Quick test_int_in;
          Alcotest.test_case "float_unit" `Quick test_float_unit;
          Alcotest.test_case "bernoulli" `Quick test_bernoulli;
          Alcotest.test_case "bernoulli range guard" `Quick
            test_bernoulli_rejects_out_of_range;
          Alcotest.test_case "fill_bytes" `Quick test_fill_bytes;
          Alcotest.test_case "shuffle" `Quick test_shuffle;
          Alcotest.test_case "known answers" `Quick test_known_answers;
        ] );
      ( "properties",
        [ prop_int_below_in_range; prop_capture_restore_replays ] );
    ]

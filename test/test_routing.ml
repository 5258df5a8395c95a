(* Finger tables and iterative Chord lookups. *)

let build_ring ?(seed = 42) n =
  let rng = Prng.create seed in
  Ring.of_ids (Keygen.node_ids rng n)

let test_fingers_point_at_successors () =
  let ring = build_ring 64 in
  Ring.iter
    (fun id () ->
      let ft = Finger_table.make id ring in
      Array.iter
        (fun (k, target) ->
          let want =
            match Ring.successor_incl (Id.add_pow2 id k) ring with
            | Some (s, ()) -> s
            | None -> Alcotest.fail "empty ring"
          in
          Alcotest.check Testutil.check_id
            (Format.asprintf "finger %d of %a" k Id.pp id)
            want target)
        (Finger_table.entries ft))
    ring

let test_closest_preceding_in_range () =
  let ring = build_ring 64 in
  let rng = Prng.create 7 in
  Ring.iter
    (fun id () ->
      let ft = Finger_table.make id ring in
      for _ = 1 to 5 do
        let key = Keygen.fresh rng in
        let next = Finger_table.closest_preceding ft key in
        (* the hop never overshoots the key *)
        if not (Id.equal next id) then
          Alcotest.(check bool) "hop stays before key" true
            (Id.between_oo ~after:id ~before:key next)
      done)
    ring

let test_lookup_owner_correct () =
  let ring = build_ring 128 in
  let tables = Routing.build_tables ring in
  let rng = Prng.create 99 in
  let start = fst (Option.get (Ring.min_binding_opt ring)) in
  for _ = 1 to 200 do
    let key = Keygen.fresh rng in
    match Routing.lookup ring tables ~start ~key with
    | None -> Alcotest.fail "lookup failed"
    | Some (owner, hops) ->
      let want = fst (Option.get (Ring.successor_incl key ring)) in
      Alcotest.check Testutil.check_id "owner" want owner;
      if hops > 2 * 7 + 2 then
        Alcotest.failf "lookup took %d hops in a 128-node ring" hops
  done

let test_lookup_hops_logarithmic () =
  let n = 512 in
  let ring = build_ring n in
  let tables = Routing.build_tables ring in
  let rng = Prng.create 5 in
  let total = ref 0 and lookups = 300 in
  let members = Array.of_list (List.map fst (Ring.bindings ring)) in
  for _ = 1 to lookups do
    let start = members.(Prng.int_below rng n) in
    let key = Keygen.fresh rng in
    match Routing.lookup ring tables ~start ~key with
    | Some (_, hops) -> total := !total + hops
    | None -> Alcotest.fail "lookup failed"
  done;
  let mean = float_of_int !total /. float_of_int lookups in
  let expect = Routing.expected_hops n in
  (* Chord's bound is ~log2(n)/2 on average; allow generous slack. *)
  if mean > 2.5 *. expect +. 2.0 then
    Alcotest.failf "mean hops %.2f too high (expected ~%.2f)" mean expect

let test_lookup_trivia () =
  let empty = Ring.create () in
  Alcotest.(check bool) "empty ring" true
    (Routing.lookup empty (Routing.build_tables empty) ~start:Id.zero ~key:Id.zero
    = None);
  let lone = Ring.of_ids [| Id.of_int 5 |] in
  let tables = Routing.build_tables lone in
  (match Routing.lookup lone tables ~start:(Id.of_int 5) ~key:(Id.of_int 77) with
  | Some (owner, _) -> Alcotest.check Testutil.check_id "lone owner" (Id.of_int 5) owner
  | None -> Alcotest.fail "lone lookup");
  (* non-member start *)
  Alcotest.(check bool) "bad start" true
    (Routing.lookup lone tables ~start:Id.zero ~key:Id.zero = None)

let test_expected_hops () =
  Alcotest.(check (float 1e-9)) "n=1" 0.0 (Routing.expected_hops 1);
  Alcotest.(check (float 1e-9)) "n=1024" 5.0 (Routing.expected_hops 1024)

let () =
  Alcotest.run "routing"
    [
      ( "unit",
        [
          Alcotest.test_case "fingers = successor(n+2^k)" `Quick
            test_fingers_point_at_successors;
          Alcotest.test_case "closest preceding stays in range" `Quick
            test_closest_preceding_in_range;
          Alcotest.test_case "lookup owner correct" `Quick test_lookup_owner_correct;
          Alcotest.test_case "hops are logarithmic" `Slow
            test_lookup_hops_logarithmic;
          Alcotest.test_case "edge cases" `Quick test_lookup_trivia;
          Alcotest.test_case "expected_hops" `Quick test_expected_hops;
        ] );
    ]

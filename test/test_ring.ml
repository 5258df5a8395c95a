(* Ring navigation: successors, predecessors and arcs with wraparound. *)

let i = Id.of_int

let ring_of ints =
  let r = Ring.create () in
  List.iter (fun n -> ignore (Ring.add (i n) n r : int Ring.node)) ints;
  r

let test_empty () =
  let empty = Ring.create () in
  Alcotest.(check bool) "empty" true (Ring.is_empty empty);
  Alcotest.(check bool) "successor none" true (Ring.successor (i 5) empty = None);
  Alcotest.(check bool) "predecessor none" true
    (Ring.predecessor (i 5) empty = None)

let test_successor () =
  let r = ring_of [ 10; 20; 30 ] in
  let s id = Option.map snd (Ring.successor (i id) r) in
  Alcotest.(check (option int)) "middle" (Some 20) (s 10);
  Alcotest.(check (option int)) "between" (Some 20) (s 15);
  Alcotest.(check (option int)) "wraps" (Some 10) (s 30);
  Alcotest.(check (option int)) "wraps past max" (Some 10) (s 35)

let test_successor_incl () =
  let r = ring_of [ 10; 20; 30 ] in
  let s id = Option.map snd (Ring.successor_incl (i id) r) in
  Alcotest.(check (option int)) "exact member" (Some 20) (s 20);
  Alcotest.(check (option int)) "between" (Some 30) (s 21);
  Alcotest.(check (option int)) "wraps" (Some 10) (s 31)

let test_predecessor () =
  let r = ring_of [ 10; 20; 30 ] in
  let p id = Option.map snd (Ring.predecessor (i id) r) in
  Alcotest.(check (option int)) "middle" (Some 10) (p 20);
  Alcotest.(check (option int)) "between" (Some 20) (p 25);
  Alcotest.(check (option int)) "wraps" (Some 30) (p 10);
  Alcotest.(check (option int)) "wraps below min" (Some 30) (p 5)

let test_singleton () =
  let r = ring_of [ 42 ] in
  Alcotest.(check (option int)) "successor of self" (Some 42)
    (Option.map snd (Ring.successor (i 42) r));
  Alcotest.(check (option int)) "predecessor of self" (Some 42)
    (Option.map snd (Ring.predecessor (i 42) r))

let test_k_neighbors () =
  let r = ring_of [ 10; 20; 30; 40 ] in
  let succs = List.map snd (Ring.k_successors (i 10) 2 r) in
  Alcotest.(check (list int)) "two successors" [ 20; 30 ] succs;
  let succs = List.map snd (Ring.k_successors (i 10) 10 r) in
  Alcotest.(check (list int)) "capped at n-1, excludes self" [ 20; 30; 40 ] succs;
  let preds = List.map snd (Ring.k_predecessors (i 10) 2 r) in
  Alcotest.(check (list int)) "predecessors wrap" [ 40; 30 ] preds

let test_arc_of () =
  let r = ring_of [ 10; 20; 30 ] in
  (match Ring.arc_of (i 20) r with
  | Some arc ->
    Alcotest.(check bool) "15 in (10,20]" true (Interval.mem (i 15) arc);
    Alcotest.(check bool) "25 not" false (Interval.mem (i 25) arc)
  | None -> Alcotest.fail "arc_of member");
  (* wrap arc of the smallest member *)
  (match Ring.arc_of (i 10) r with
  | Some arc ->
    Alcotest.(check bool) "35 in (30,10]" true (Interval.mem (i 35) arc);
    Alcotest.(check bool) "5 in (30,10]" true (Interval.mem (i 5) arc)
  | None -> Alcotest.fail "arc_of smallest");
  Alcotest.(check bool) "non-member" true (Ring.arc_of (i 99) r = None);
  (* lone member owns everything *)
  match Ring.arc_of (i 5) (ring_of [ 5 ]) with
  | Some arc -> Alcotest.(check bool) "full" true (Interval.mem (i 77) arc)
  | None -> Alcotest.fail "lone arc"

let test_nth () =
  let r = ring_of [ 30; 10; 20 ] in
  Alcotest.(check int) "nth 0" 10 (snd (Ring.nth r 0));
  Alcotest.(check int) "nth 2" 30 (snd (Ring.nth r 2));
  Alcotest.check_raises "bounds" (Invalid_argument "Ring.nth: index out of bounds")
    (fun () -> ignore (Ring.nth r 3))

let test_bindings_and_iteration () =
  let r = ring_of [ 30; 10; 20 ] in
  Alcotest.(check (list int)) "bindings sorted" [ 10; 20; 30 ]
    (List.map snd (Ring.bindings r));
  (match Ring.min_binding_opt r with
  | Some (_, v) -> Alcotest.(check int) "min binding" 10 v
  | None -> Alcotest.fail "min binding");
  let sum = Ring.fold (fun _ v acc -> acc + v) r 0 in
  Alcotest.(check int) "fold" 60 sum;
  let seen = ref 0 in
  Ring.iter (fun _ _ -> incr seen) r;
  Alcotest.(check int) "iter" 3 !seen;
  Alcotest.(check bool) "mem" true (Ring.mem (i 20) r);
  Alcotest.(check bool) "find" true (Ring.find_opt (i 20) r = Some 20);
  Alcotest.check_raises "add refuses a member"
    (Invalid_argument "Ring.add: id already present") (fun () ->
      ignore (Ring.add (i 20) 99 r : int Ring.node));
  Ring.remove (i 20) r;
  Alcotest.(check int) "remove" 2 (Ring.cardinal r);
  Alcotest.(check bool) "removed" false (Ring.mem (i 20) r);
  Ring.remove (i 20) r;
  Alcotest.(check int) "removing a non-member is a no-op" 2 (Ring.cardinal r);
  Ring.check r

let test_links () =
  let r = ring_of [ 30; 10; 20 ] in
  let node n = Option.get (Ring.find_node (i n) r) in
  Alcotest.(check int) "next" 30 (Ring.value (Ring.next (node 20)));
  Alcotest.(check int) "next wraps" 10 (Ring.value (Ring.next (node 30)));
  Alcotest.(check int) "prev wraps" 30 (Ring.value (Ring.prev (node 10)));
  let n20 = node 20 in
  Ring.remove_node n20 r;
  Alcotest.(check int) "unlinked" 30 (Ring.value (Ring.next (node 10)));
  Alcotest.(check bool) "removed node links to itself" true
    (Ring.next n20 == n20 && Ring.prev n20 == n20);
  Alcotest.check_raises "second removal"
    (Invalid_argument "Ring.remove_node: not a member") (fun () ->
      Ring.remove_node n20 r);
  Ring.check r

let prop_successor_is_min_greater =
  Testutil.prop ~count:400 "successor = argmin of clockwise distance"
    QCheck.(pair (small_list Testutil.arb_small_id) Testutil.arb_small_id)
    (fun (ids, x) ->
      QCheck.assume (ids <> []);
      let r = Ring.of_ids (Array.of_list ids) in
      match Ring.successor x r with
      | None -> false
      | Some (s, ()) ->
        (* No member lies strictly inside (x, s). *)
        List.for_all
          (fun id -> Id.equal id s || not (Id.between_oo ~after:x ~before:s id))
          ids)

let prop_arcs_partition =
  Testutil.prop ~count:300 "member arcs partition the ring"
    QCheck.(pair (small_list Testutil.arb_small_id) Testutil.arb_small_id)
    (fun (ids, key) ->
      QCheck.assume (ids <> []);
      let r = Ring.of_ids (Array.of_list ids) in
      let owners =
        Ring.fold
          (fun id () acc ->
            match Ring.arc_of id r with
            | Some arc when Interval.mem key arc -> id :: acc
            | _ -> acc)
          r []
      in
      (* Every key belongs to exactly one member's arc, and it is the
         successor_incl of the key. *)
      match (owners, Ring.successor_incl key r) with
      | [ o ], Some (s, ()) -> Id.equal o s
      | _ -> false)

(* Differential test: random insert/remove sequences run against a
   sorted association list, and after every step every navigation query
   must agree with the model's answer. *)

type op = Add of Id.t | Del_nth of int | Del_id of Id.t

let model_check model r probes =
  let ids = List.map fst model in
  let n = List.length model in
  let fail fmt = Printf.ksprintf (fun m -> raise (Failure m)) fmt in
  Ring.check r;
  if Ring.cardinal r <> n then fail "cardinal %d, model %d" (Ring.cardinal r) n;
  let order = ref [] in
  Ring.iter (fun id v -> order := (id, v) :: !order) r;
  if List.rev !order <> model then fail "iter order differs from the model";
  let arr = Array.of_list model in
  (* Position of the first member satisfying [p], scanning upward. *)
  let first p = List.find_index (fun id -> p id) ids in
  let at k = arr.(((k mod n) + n) mod n) in
  let succ_idx q = Option.value ~default:0 (first (fun id -> Id.compare id q > 0)) in
  let incl_idx q = Option.value ~default:0 (first (fun id -> Id.compare id q >= 0)) in
  let pred_idx q =
    match first (fun id -> Id.compare id q >= 0) with Some k -> k - 1 | None -> n - 1
  in
  let walk start dir k = List.init (min k (max 0 (n - 1))) (fun j -> at (start + (dir * j))) in
  let some k = if n = 0 then None else Some (at k) in
  List.iter
    (fun q ->
      let hex = Id.to_hex q in
      if Ring.successor q r <> some (succ_idx q) then fail "successor %s" hex;
      if Ring.successor_incl q r <> some (incl_idx q) then fail "successor_incl %s" hex;
      if Ring.predecessor q r <> some (pred_idx q) then fail "predecessor %s" hex;
      List.iter
        (fun k ->
          if Ring.k_successors q k r <> walk (succ_idx q) 1 k then
            fail "k_successors %s %d" hex k;
          if Ring.k_predecessors q k r <> walk (pred_idx q) (-1) k then
            fail "k_predecessors %s %d" hex k)
        [ 0; 1; 2; 3; n + 1 ];
      let want =
        if List.mem_assoc q model then
          Some (Interval.make ~after:(fst (at (pred_idx q))) ~upto:q)
        else None
      in
      match (Ring.arc_of q r, want) with
      | None, None -> ()
      | Some a, Some b when Id.equal a.after b.after && Id.equal a.upto b.upto -> ()
      | _ -> fail "arc_of %s" hex)
    (ids @ probes)

let run_ops (ops, probes) =
  let r = Ring.create () in
  let model = ref [] in
  List.iteri
    (fun step op ->
      (match op with
      | Add id ->
        if List.mem_assoc id !model then
          match Ring.add id step r with
          | exception Invalid_argument _ -> ()
          | _ -> failwith "add accepted a member twice"
        else begin
          ignore (Ring.add id step r : int Ring.node);
          model := List.sort (fun (a, _) (b, _) -> Id.compare a b) ((id, step) :: !model)
        end
      | Del_nth k ->
        if !model <> [] then begin
          let id, _ = List.nth !model (k mod List.length !model) in
          Ring.remove id r;
          model := List.remove_assoc id !model
        end
      | Del_id id ->
        Ring.remove id r;
        model := List.remove_assoc id !model);
      model_check !model r probes)
    ops;
  true

let scenario id_gen =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, map (fun id -> Add id) id_gen);
        (2, map (fun k -> Del_nth k) nat);
        (1, map (fun id -> Del_id id) id_gen);
      ]
  in
  pair (list_size (int_range 1 80) op) (list_size (return 8) id_gen)

let print_ops (ops, probes) =
  let show = function
    | Add id -> "+" ^ Id.to_hex id
    | Del_nth k -> Printf.sprintf "-#%d" k
    | Del_id id -> "-" ^ Id.to_hex id
  in
  String.concat " " (List.map show ops)
  ^ " | probes " ^ String.concat " " (List.map Id.to_hex probes)

let prop_model ?(count = 200) name gen =
  Testutil.prop ~count name (QCheck.make ~print:print_ops gen) run_ops

let uniform_ids = QCheck.gen Testutil.arb_id

(* Four 8-byte heads that agree on their top 62 bits, so every
   comparison between them ties on the cached prefix and falls through
   to the full compare; short tails from a tiny alphabet make repeated
   ids (duplicate adds, removals of members) common. *)
let tied_prefix_ids =
  let open QCheck.Gen in
  map2
    (fun last tail -> Id.of_raw_string ("\x12\x34\x56\x78\x9a\xbc\xde" ^ String.make 1 last ^ tail))
    (oneofl [ '\xf0'; '\xf1'; '\xf2'; '\xf3' ])
    (map (fun s -> String.make 10 '\x00' ^ s)
       (string_size ~gen:(oneofl [ '\x00'; '\x01'; '\x7f'; '\xff' ]) (return 2)))

(* Grow the ring to 40-80 adds, several 16-member blocks, drain it to
   empty with as many removals, then refill it with 17-40 adds:
   blocks split while growing, shrink and vanish while draining, and
   the empty ring must start over cleanly. *)
let grow_drain_refill =
  let open QCheck.Gen in
  let adds lo hi = list_size (int_range lo hi) (map (fun id -> Add id) uniform_ids) in
  adds 40 80 >>= fun grow ->
  list_repeat (List.length grow) (map (fun k -> Del_nth k) nat) >>= fun drain ->
  adds 17 40 >>= fun refill ->
  map (fun probes -> (grow @ drain @ refill, probes)) (list_repeat 8 uniform_ids)

(* More than 16 members that all agree on their top 62 bits, mixed with
   uniform ids: the tied run is longer than a block, so a tie falls on
   a block boundary and only the full compare can tell the blocks
   apart.  Random adds and removals then move the boundary around. *)
let long_tied_run =
  let open QCheck.Gen in
  let tied =
    map2
      (fun last tail -> Id.of_raw_string ("\x12\x34\x56\x78\x9a\xbc\xde" ^ String.make 1 last ^ tail))
      (oneofl [ '\xf0'; '\xf1'; '\xf2'; '\xf3' ])
      (string_size ~gen:char (return 12))
  in
  let id = frequency [ (3, tied); (1, uniform_ids) ] in
  list_size (int_range 17 48) (map (fun id -> Add id) tied) >>= fun run ->
  list_size (int_range 0 60)
    (frequency
       [
         (3, map (fun id -> Add id) id);
         (2, map (fun k -> Del_nth k) nat);
         (1, map (fun id -> Del_id id) id);
       ])
  >>= fun churn ->
  map (fun probes -> (run @ churn, probes)) (list_repeat 8 id)

(* Eclipse-style clustering: every id within 4096 of one base, so the
   whole population packs into one narrow arc (which may straddle 0). *)
let narrow_arc_ids =
  let open QCheck.Gen in
  let base = Id.of_hex "fffffffffffffffffffffffffffffffffffff800" in
  map (fun off -> Id.add base (Id.of_int off)) (int_bound 4095)

let () =
  Alcotest.run "ring"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "successor" `Quick test_successor;
          Alcotest.test_case "successor_incl" `Quick test_successor_incl;
          Alcotest.test_case "predecessor" `Quick test_predecessor;
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "k_neighbors" `Quick test_k_neighbors;
          Alcotest.test_case "arc_of" `Quick test_arc_of;
          Alcotest.test_case "nth" `Quick test_nth;
          Alcotest.test_case "bindings/iteration" `Quick test_bindings_and_iteration;
          Alcotest.test_case "links" `Quick test_links;
        ] );
      ("properties", [ prop_successor_is_min_greater; prop_arcs_partition ]);
      ( "model",
        [
          prop_model "uniform ids match the sorted-list model" (scenario uniform_ids);
          prop_model "tied 62-bit prefixes match the model" (scenario tied_prefix_ids);
          prop_model "one narrow arc matches the model" (scenario narrow_arc_ids);
          prop_model ~count:20 "grow past several blocks, drain to empty, refill"
            grow_drain_refill;
          prop_model ~count:60 "a tied run longer than a block matches the model"
            long_tied_run;
        ] );
    ]

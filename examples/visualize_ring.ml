(* The paper's Figures 2 and 3: ten nodes and a hundred tasks on the unit
   circle, once with SHA-1 node placement and once evenly spaced.  Also
   prints each node's share of the ring and of the tasks, making the §III
   point concrete: even perfect node spacing leaves task clusters.

   Run with: dune exec examples/visualize_ring.exe *)

let describe ~label ~node_ids ~task_keys =
  Printf.printf "%s\n" label;
  print_string (Circle.render_ascii ~size:29 ~nodes:node_ids ~tasks:task_keys ());
  (* Tasks per node under Chord responsibility. *)
  let ring = Ring.of_ids node_ids in
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun key ->
      match Ring.successor_incl key ring with
      | Some (owner, ()) ->
        Hashtbl.replace counts owner
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts owner))
      | None -> ())
    task_keys;
  let sorted = Array.copy node_ids in
  Array.sort Id.compare sorted;
  Array.iter
    (fun id ->
      let arc =
        match Ring.arc_of id ring with
        | Some a -> Interval.fraction a
        | None -> 0.0
      in
      Format.printf "  node %a owns %4.1f%% of the ring, %3d tasks@."
        Id.pp id (100.0 *. arc)
        (Option.value ~default:0 (Hashtbl.find_opt counts id)))
    sorted;
  print_newline ()

let () =
  let rng = Prng.create 42 in
  let node_ids = Keygen.node_ids rng 10 in
  let task_keys = Keygen.task_keys rng 100 in
  describe ~label:"Figure 2: SHA-1 node placement" ~node_ids ~task_keys;
  describe ~label:"Figure 3: even node placement"
    ~node_ids:(Keygen.even_ids 10) ~task_keys

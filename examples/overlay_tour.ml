(* The same lookup on three classic overlays.

   The paper's world spans BitTorrent (Kademlia), Chord (its substrate)
   and Symphony (the P2P MapReduce host it discusses); the balancing
   strategies only need ring ownership plus neighbor lists, so any of
   them could carry the Sybil machinery.  This example builds all three
   over the same 512 members and routes the same keys, showing what a
   Sybil join's lookup would cost on each.

   Run with: dune exec examples/overlay_tour.exe *)

let () =
  let n = 512 in
  let rng = Prng.create 99 in
  let ids = Keygen.node_ids rng n in

  let ring = Ring.of_ids ids in
  let chord_tables = Routing.build_tables ring in
  let symphony = Symphony.build rng ~ids ~long_links:4 in
  let kademlia = Kademlia.build rng ~ids ~k:8 in

  Printf.printf "%d members; routing 5 sample keys:\n\n" n;
  Printf.printf "%-14s %-12s %-12s %-12s\n" "key" "chord hops" "symphony" "kademlia";
  for _ = 1 to 5 do
    let key = Keygen.fresh rng in
    let start = ids.(Prng.int_below rng n) in
    let chord =
      match Routing.lookup ring chord_tables ~start ~key with
      | Some (_, h) -> string_of_int h
      | None -> "-"
    in
    let sym =
      match Symphony.lookup symphony ~start ~key with
      | Some (_, h) -> string_of_int h
      | None -> "-"
    in
    let kad =
      match Kademlia.lookup kademlia ~start ~key with
      | Some (_, h) -> string_of_int h
      | None -> "-"
    in
    Format.printf "%-14s %-12s %-12s %-12s@."
      (Format.asprintf "%a" Id.pp key)
      chord sym kad
  done;
  print_newline ();
  print_string
    "Mean hops over 300 lookups (theory: log2(n)/2 | log2(n)^2/2k | ~log2k(n)):\n";
  print_string (Overlay_hops.print_table (Overlay_hops.run ~sizes:[ n ] ()));
  print_newline ();
  print_endline
    "Chord and Symphony agree on who owns a key (ring successor);";
  print_endline
    "Kademlia's owner is the XOR-closest node — same machinery, different metric."

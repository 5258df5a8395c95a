type row = {
  overlay : string;
  nodes : int;
  mean_hops : float;
  expected : float;
}

let symphony_links = 4
let kademlia_k = 8

let run ?(seed = 42) ?(sizes = [ 128; 512; 2048 ]) ?(lookups = 300) () =
  List.concat_map
    (fun nodes ->
      let rng = Prng.create seed in
      let ids = Keygen.node_ids rng nodes in
      let ring = Ring.of_ids ids in
      let tables = Routing.build_tables ring in
      let symphony = Symphony.build rng ~ids ~long_links:symphony_links in
      let kademlia = Kademlia.build rng ~ids ~k:kademlia_k in
      let sample_hops lookup =
        let total = ref 0 in
        for _ = 1 to lookups do
          let start = ids.(Prng.int_below rng nodes) in
          let key = Keygen.fresh rng in
          match lookup ~start ~key with
          | Some (_, h) -> total := !total + h
          | None -> invalid_arg "Overlay_hops: lookup failed"
        done;
        float_of_int !total /. float_of_int lookups
      in
      [
        {
          overlay = "chord";
          nodes;
          mean_hops = sample_hops (fun ~start ~key -> Routing.lookup ring tables ~start ~key);
          expected = Routing.expected_hops nodes;
        };
        {
          overlay = "symphony";
          nodes;
          mean_hops = sample_hops (fun ~start ~key -> Symphony.lookup symphony ~start ~key);
          expected = Symphony.expected_hops ~n:nodes ~k:symphony_links;
        };
        {
          overlay = "kademlia";
          nodes;
          mean_hops = sample_hops (fun ~start ~key -> Kademlia.lookup kademlia ~start ~key);
          expected = Kademlia.expected_hops nodes;
        };
      ])
    sizes

let print_table rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-10s %8s %10s %10s\n" "overlay" "nodes" "mean hops"
       "expected~");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-10s %8d %10.2f %10.2f\n" r.overlay r.nodes
           r.mean_hops r.expected))
    rows;
  Buffer.contents buf

type 'a vnode = { id : Id.t; mutable keys : Id_set.t; payload : 'a }

(* Ids hash on the XOR of their leading and trailing 64-bit words:
   [Id.of_fraction] ids (attack Sybils, [Keygen.even_ids]) are zero past
   the leading word and [Id.of_int] ids are zero before the trailing
   one.  Fraction ids are also zero in the low bits of the leading word,
   which are the bits a table picks its bucket with, so a fold, a
   multiply and a second fold spread the high bits down. *)
module Index = Hashtbl.Make (struct
  type t = Id.t

  let equal = Id.equal

  let hash id =
    let s = Id.to_raw_string id in
    let x = Int64.to_int (Int64.logxor (String.get_int64_be s 0) (String.get_int64_be s 12)) in
    let x = (x lxor (x lsr 32)) * 0x2545F4914F6CDD1D in
    x lxor (x lsr 29)
end)

type 'a t = {
  ring : 'a vnode Ring.t;
  (* Hash index from ids to ring nodes: point lookups (find/workload/
     consume) are O(1) instead of an O(log n) ring search, which the
     strategies' every-decision-period workload scans hit for every
     vnode of every machine, and a member's neighbours are one link
     away from its node. *)
  index : 'a vnode Ring.node Index.t;
  mutable total_keys : int;
  messages : Messages.t;
}

let create () =
  {
    ring = Ring.create ();
    index = Index.create 256;
    total_keys = 0;
    messages = Messages.create ();
  }

let messages t = t.messages
let size t = Ring.cardinal t.ring
let total_keys t = t.total_keys
let find t id =
  match Index.find_opt t.index id with
  | Some n -> Some (Ring.value n)
  | None -> None

let join t ~id ~payload =
  if Index.mem t.index id then Error `Occupied
  else begin
    t.messages.joins <- t.messages.joins + 1;
    let vn = { id; keys = Id_set.empty; payload } in
    let node = Ring.add id vn t.ring in
    let succ = Ring.value (Ring.next node) in
    (* The first vnode has nothing to take over; any later one carves
       its arc (pred(id), id] out of its successor's keys. *)
    if succ != vn then begin
      let inside, outside = Id_set.split_arc (Ring.node_arc node) succ.keys in
      succ.keys <- outside;
      t.messages.key_transfers <- t.messages.key_transfers + Id_set.cardinal inside;
      vn.keys <- inside
    end;
    Index.replace t.index id node;
    Ok vn
  end

let leave t id =
  match Index.find_opt t.index id with
  | None -> Error `Not_member
  | Some node ->
    if Ring.cardinal t.ring = 1 then Error `Last_node
    else begin
      t.messages.leaves <- t.messages.leaves + 1;
      let vn = Ring.value node and succ = Ring.value (Ring.next node) in
      Ring.remove_node node t.ring;
      Index.remove t.index id;
      let moved = Id_set.cardinal vn.keys in
      if moved > 0 then begin
        succ.keys <- Id_set.union succ.keys vn.keys;
        t.messages.key_transfers <- t.messages.key_transfers + moved
      end;
      (* The record is out of the ring; empty it so a caller still
         holding it cannot read phantom workload. *)
      vn.keys <- Id_set.empty;
      Ok ()
    end

(* Ungraceful removal: the vnode vanishes with no key handover.  Its
   keys leave the store (total_keys drops) and are handed back to the
   caller, who either restores the survivors' copies ({!restore}) or
   writes them off as lost.  Unlike {!leave} the last vnode may crash —
   a crash does not ask permission — so the ring can empty out. *)
let crash t id =
  match Index.find_opt t.index id with
  | None -> Error `Not_member
  | Some node ->
    t.messages.leaves <- t.messages.leaves + 1;
    Ring.remove_node node t.ring;
    Index.remove t.index id;
    let vn = Ring.value node in
    let keys = vn.keys in
    vn.keys <- Id_set.empty;
    t.total_keys <- t.total_keys - Id_set.cardinal keys;
    Ok keys

let owner_of t key = Option.map Ring.value (Ring.first_at_or_after key t.ring)

(* Recovery after a crash: re-insert a crashed vnode's keys at their
   current owner — the first surviving vnode clockwise of [near] (the
   crashed id), which owns the whole vacated arc.  Bills one transfer
   per key (the fetch from a replica holder). *)
let restore t ~near keys =
  let moved = Id_set.cardinal keys in
  if moved > 0 then begin
    match owner_of t near with
    | None -> invalid_arg "Dht.restore: empty ring"
    | Some vn ->
      vn.keys <- Id_set.union vn.keys keys;
      t.total_keys <- t.total_keys + moved;
      t.messages.key_transfers <- t.messages.key_transfers + moved
  end;
  moved

let insert_key t key =
  match owner_of t key with
  | None -> Error `Empty_ring
  | Some vn ->
    if Id_set.mem key vn.keys then Error `Duplicate
    else begin
      vn.keys <- Id_set.add key vn.keys;
      t.total_keys <- t.total_keys + 1;
      Ok ()
    end

(* Bulk load: sort the batch once, then hand every vnode its arc's slice
   as an [of_sorted_array] set instead of one owner lookup and one set
   insert per key.  Duplicates (within the batch or against stored keys)
   are dropped, exactly as repeated [insert_key] calls would drop them. *)
let insert_keys t keys =
  if Ring.is_empty t.ring then Error `Empty_ring
  else begin
    let sorted = Array.copy keys in
    Id.sort_array sorted;
    let distinct =
      let n = Array.length sorted in
      if n = 0 then [||]
      else begin
        let out = Array.make n sorted.(0) in
        let m = ref 1 in
        for i = 1 to n - 1 do
          if not (Id.equal sorted.(i) sorted.(i - 1)) then begin
            out.(!m) <- sorted.(i);
            incr m
          end
        done;
        Array.sub out 0 !m
      end
    in
    let n = Array.length distinct in
    (* First index holding an id strictly greater than [x]; [n] if none. *)
    let first_gt x =
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Id.compare distinct.(mid) x <= 0 then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let inserted = ref 0 in
    let give vn slice_set =
      if not (Id_set.is_empty slice_set) then begin
        let before = Id_set.cardinal vn.keys in
        vn.keys <- Id_set.union vn.keys slice_set;
        inserted := !inserted + Id_set.cardinal vn.keys - before
      end
    in
    let slice lo hi =
      (* [lo, hi): already sorted and distinct. *)
      if hi <= lo then Id_set.empty
      else Id_set.of_sorted_array (Array.sub distinct lo (hi - lo))
    in
    if Ring.cardinal t.ring = 1 then
      (* A lone vnode owns the whole ring. *)
      Ring.iter (fun _ vn -> give vn (slice 0 n)) t.ring
    else
      Ring.iter_nodes
        (fun node ->
          let vn = Ring.value node and after = Ring.key (Ring.prev node) in
          let upto = first_gt vn.id in
          if Id.compare after vn.id > 0 then
            (* The smallest id's arc (last, first] wraps: the tail
               beyond the last vnode plus the head up to the first. *)
            give vn (Id_set.union (slice (first_gt after) n) (slice 0 upto))
          else give vn (slice (first_gt after) upto))
        t.ring;
    t.total_keys <- t.total_keys + !inserted;
    Ok !inserted
  end

(* Record-direct variant: the engine holds each machine's vnode records
   and consumes every tick, so the per-call [Index] lookup of the
   id-keyed [consume] was the single hottest operation at 100k nodes. *)
let consume_vnode_keys ~pick t vn n =
  let c = Id_set.cardinal vn.keys in
  if n <= 0 || c = 0 then []
  else begin
    let rand bound =
      let i = pick bound in
      if i < 0 || i >= bound then invalid_arg "Dht.consume: pick out of range";
      i
    in
    let taken, rest = Id_set.take_random_n ~rand vn.keys n in
    vn.keys <- rest;
    t.total_keys <- t.total_keys - List.length taken;
    taken
  end

let consume_vnode ~pick t vn n = List.length (consume_vnode_keys ~pick t vn n)

(* Diffusive work transfer: up to [n] randomly-picked tasks move from
   [src] to [dst] without any ownership change, so the moved keys live
   outside [dst]'s arc afterwards — [check_invariants] relaxes its
   arc-membership check once this has happened.  The picks consume the
   same [pick] discipline as consumption (one bounded draw per taken
   key, bounds c, c-1, ...) so the oracle can replay them naively. *)
let transfer_keys ~pick t ~src ~dst n =
  let c = Id_set.cardinal src.keys in
  if n <= 0 || c = 0 || src == dst then 0
  else begin
    let rand bound =
      let i = pick bound in
      if i < 0 || i >= bound then invalid_arg "Dht.transfer_keys: pick out of range";
      i
    in
    let taken, rest = Id_set.take_random_n ~rand src.keys n in
    src.keys <- rest;
    (* A picked key that [dst] already holds (possible only if a
       duplicate arrival slipped past the owner after an earlier
       transfer) stays with [src]: silently collapsing it in a set
       union would destroy a task and break conservation. *)
    let moved = ref 0 in
    List.iter
      (fun key ->
        if Id_set.mem key dst.keys then src.keys <- Id_set.add key src.keys
        else begin
          dst.keys <- Id_set.add key dst.keys;
          incr moved
        end)
      taken;
    t.messages.work_transfers <- t.messages.work_transfers + !moved;
    !moved
  end

let consume ~pick t id n =
  match Index.find_opt t.index id with
  | None -> 0
  | Some node -> consume_vnode ~pick t (Ring.value node) n

let workload t id =
  match Index.find_opt t.index id with
  | None -> 0
  | Some node -> Id_set.cardinal (Ring.value node).keys

(* A member's neighbours are one link away from its index entry; any
   other id pays one ring search to find where it would sit. *)
let near step first t id =
  match Index.find_opt t.index id with
  | Some n -> Some (step n)
  | None -> first id t.ring

let arc_of t id = Option.map Ring.node_arc (Index.find_opt t.index id)
let successor t id = Option.map Ring.value (near Ring.next Ring.first_after t id)
let predecessor t id = Option.map Ring.value (near Ring.prev Ring.last_before t id)

let k_neighbors step first t id k =
  match near step first t id with
  | None -> []
  | Some n -> Ring.take n ~step (min k (size t - 1))

let k_successors t id k = k_neighbors Ring.next Ring.first_after t id k
let k_predecessors t id k = k_neighbors Ring.prev Ring.last_before t id k
let iter f t = Ring.iter (fun _ vn -> f vn) t.ring
let fold f t acc = Ring.fold (fun _ vn acc -> f vn acc) t.ring acc
let vnode_ids t = List.map fst (Ring.bindings t.ring)
let ring t = t.ring

let check_invariants t =
  (* The ring itself: block shapes and starts, links in block order,
     size. *)
  Ring.check t.ring;
  let counted = fold (fun vn acc -> acc + Id_set.cardinal vn.keys) t 0 in
  if counted <> t.total_keys then
    invalid_arg
      (Printf.sprintf "Dht: total_keys=%d but counted=%d" t.total_keys counted);
  if Index.length t.index <> Ring.cardinal t.ring then
    invalid_arg
      (Printf.sprintf "Dht: index has %d entries but ring has %d"
         (Index.length t.index) (Ring.cardinal t.ring));
  Ring.iter_nodes
    (fun node ->
      let vn = Ring.value node in
      if not (Id.equal vn.id (Ring.key node)) then
        invalid_arg "Dht: ring node keyed apart from its vnode";
      (match Index.find_opt t.index vn.id with
      | Some n when n == node -> ()
      | Some _ -> invalid_arg "Dht: index points at a stale ring node"
      | None -> invalid_arg "Dht: ring vnode missing from index");
      (* Diffusive work transfers place tasks outside their owner's arc
         by design, so arc membership is only a law while no transfer
         has happened. *)
      if t.messages.work_transfers = 0 then begin
        let arc = Ring.node_arc node in
        Id_set.iter
          (fun key ->
            if not (Interval.mem key arc) then
              invalid_arg
                (Format.asprintf "Dht: key %a outside arc %a of vnode %a" Id.pp key
                   Interval.pp arc Id.pp vn.id))
          vn.keys
      end)
    t.ring

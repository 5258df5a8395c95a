(* One mutable ordered ring: every member is a node of a circular
   doubly-linked list (in id order, for stepping to a neighbour) and a
   slot of a two-level blocked index (for searches from an arbitrary
   id).  The members, in id order, are cut into blocks of at most
   [capacity] nodes.  Each block keeps its members' cached prefixes in
   a flat int array beside its node array, and one more int array holds
   every block's first prefix, so a search reads two dense int arrays
   and touches a node only to break a tie.  A join shifts one block
   (splitting it in half when full) and reads its neighbours off the
   links; a leave unlinks in O(1), shifts one block and drops the block
   when it empties.

   Ids are 20-byte strings, so a full comparison is a string compare.
   Each node caches its id's top 62 bits as an int; searches compare the
   ints and fall back to [Id.compare] only when two prefixes tie. *)

type 'a node = {
  key : Id.t;
  prefix : int;
  value : 'a;
  mutable next : 'a node;
  mutable prev : 'a node;
}

(* Slots [0, len) hold members in id order, [prefixes.(i)] caching
   [nodes.(i).prefix].  Slots from [len] on repeat slot 0's node, so a
   block never keeps a removed node alive. *)
type 'a block = { mutable len : int; nodes : 'a node array; prefixes : int array }

(* Blocks [0, count) are in use, in id order, and [starts.(b)] is
   [blocks.(b).prefixes.(0)]; slots from [count] on hold [empty].  The
   size rides along: the simulation asks for the ring size on hot paths
   (every leave's last-node check, every join's lookup-hop pricing,
   every trace record). *)
type 'a t = {
  mutable blocks : 'a block array;
  mutable starts : int array;
  mutable count : int;
  mutable size : int;
  empty : 'a block;
}

(* In a microbenchmark of add/remove pairs and searches on a
   20,000-member ring, blocks of 16 and 32 were fastest and 8 and 64
   slower; 16 keeps a search to four probes in the block and a shift to
   at most 16 slots. *)
let capacity = 16

let prefix_of id =
  Int64.to_int
    (Int64.shift_right_logical (String.get_int64_be (Id.to_raw_string id) 0) 2)

let create () =
  let empty = { len = 0; nodes = [||]; prefixes = [||] } in
  { blocks = [||]; starts = [||]; count = 0; size = 0; empty }
let is_empty t = t.size = 0
let cardinal t = t.size

let key n = n.key
let value n = n.value
let next n = n.next
let prev n = n.prev
let binding n = (n.key, n.value)

(* {2 Search} *)

(* The last block whose first member sorts at or before (prefix, id);
   -1 if none does. *)
let find_block t prefix id =
  let lo = ref 0 and hi = ref t.count in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let s = t.starts.(mid) in
    if s < prefix || (s = prefix && Id.compare t.blocks.(mid).nodes.(0).key id <= 0) then
      lo := mid + 1
    else hi := mid
  done;
  !lo - 1

(* The last slot of [blk] whose member sorts at or before (prefix, id),
   given that slot 0's does. *)
let find_slot blk prefix id =
  let lo = ref 1 and hi = ref blk.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let q = blk.prefixes.(mid) in
    if q < prefix || (q = prefix && Id.compare blk.nodes.(mid).key id <= 0) then lo := mid + 1
    else hi := mid
  done;
  !lo - 1

(* The smallest member; the ring must not be empty. *)
let min_node t = t.blocks.(0).nodes.(0)

(* The greatest member at or before [id], or the smallest member when
   none is.  The ring must not be empty. *)
let locate id t =
  let prefix = prefix_of id in
  let b = find_block t prefix id in
  if b < 0 then min_node t
  else
    let blk = t.blocks.(b) in
    blk.nodes.(find_slot blk prefix id)

let find_node id t =
  if t.size = 0 then None
  else
    let n = locate id t in
    if Id.equal n.key id then Some n else None

let mem id t = Option.is_some (find_node id t)
let find_opt id t = Option.map value (find_node id t)

let first_at_or_after id t =
  if t.size = 0 then None
  else
    let n = locate id t in
    Some (if Id.compare id n.key <= 0 then n else n.next)

let first_after id t =
  if t.size = 0 then None
  else
    let n = locate id t in
    Some (if Id.compare id n.key < 0 then n else n.next)

let last_before id t =
  if t.size = 0 then None
  else
    let n = locate id t in
    Some (if Id.compare id n.key > 0 then n else n.prev)

let successor id t = Option.map binding (first_after id t)
let successor_incl id t = Option.map binding (first_at_or_after id t)
let predecessor id t = Option.map binding (last_before id t)

(* [f] of [n] and of the nodes [step] reaches from it, [k] in all. *)
let collect f n ~step k =
  let rec go n k acc = if k <= 0 then List.rev acc else go (step n) (k - 1) (f n :: acc) in
  go n k []

let take n ~step k = collect value n ~step k

(* Up to [k] members strictly past [id] in one direction: never [id]
   itself and never one member twice, so at most [cardinal - 1]. *)
let k_neighbors first step id k t =
  match first id t with
  | None -> []
  | Some n -> collect binding n ~step (min k (t.size - 1))

let k_successors id k t = k_neighbors first_after next id k t
let k_predecessors id k t = k_neighbors last_before prev id k t

let node_arc n = Interval.make ~after:n.prev.key ~upto:n.key
let arc_of id t = Option.map node_arc (find_node id t)

(* {2 Insertion and removal} *)

(* A block of [len] members whose first is [first], with every slot
   filled with it until the caller writes the rest. *)
let new_block len first =
  { len; nodes = Array.make capacity first; prefixes = Array.make capacity first.prefix }

(* Point the free slots of [blk] at its new slot-0 node. *)
let seal blk = Array.fill blk.nodes blk.len (capacity - blk.len) blk.nodes.(0)

(* Open block slot [b] for [blk], growing the block arrays when full. *)
let insert_block t b blk =
  if t.count = Array.length t.blocks then begin
    let room = max 4 (2 * t.count) in
    let blocks = Array.make room t.empty and starts = Array.make room 0 in
    Array.blit t.blocks 0 blocks 0 t.count;
    Array.blit t.starts 0 starts 0 t.count;
    t.blocks <- blocks;
    t.starts <- starts
  end;
  for c = t.count downto b + 1 do
    t.blocks.(c) <- t.blocks.(c - 1);
    t.starts.(c) <- t.starts.(c - 1)
  done;
  t.blocks.(b) <- blk;
  t.starts.(b) <- blk.prefixes.(0);
  t.count <- t.count + 1

let drop_block t b =
  for c = b to t.count - 2 do
    t.blocks.(c) <- t.blocks.(c + 1);
    t.starts.(c) <- t.starts.(c + 1)
  done;
  t.count <- t.count - 1;
  t.blocks.(t.count) <- t.empty

(* Put [n] at slot [pos] of block [b], which has room. *)
let put t b pos n =
  let blk = t.blocks.(b) in
  for j = blk.len downto pos + 1 do
    blk.nodes.(j) <- blk.nodes.(j - 1);
    blk.prefixes.(j) <- blk.prefixes.(j - 1)
  done;
  blk.nodes.(pos) <- n;
  blk.prefixes.(pos) <- n.prefix;
  blk.len <- blk.len + 1;
  if pos = 0 then begin
    t.starts.(b) <- n.prefix;
    seal blk
  end

(* Put [n] at slot [pos] of block [b], first moving the upper half of a
   full block into a new block after it. *)
let insert_at t b pos n =
  let blk = t.blocks.(b) in
  if blk.len < capacity then put t b pos n
  else begin
    let half = capacity / 2 in
    let upper = new_block (capacity - half) blk.nodes.(half) in
    Array.blit blk.nodes half upper.nodes 0 (capacity - half);
    Array.blit blk.prefixes half upper.prefixes 0 (capacity - half);
    blk.len <- half;
    seal blk;
    insert_block t (b + 1) upper;
    if pos <= half then put t b pos n else put t (b + 1) (pos - half) n
  end

let add id v t =
  let prefix = prefix_of id in
  let rec fresh = { key = id; prefix; value = v; next = fresh; prev = fresh } in
  if t.size = 0 then insert_block t 0 (new_block 1 fresh)
  else begin
    let b = find_block t prefix id in
    let pos =
      if b < 0 then 0
      else begin
        let blk = t.blocks.(b) in
        let i = find_slot blk prefix id in
        if blk.prefixes.(i) = prefix && Id.equal blk.nodes.(i).key id then
          invalid_arg "Ring.add: id already present";
        i + 1
      end
    in
    let b = max b 0 in
    (* Splice [fresh] into the list after the member before its slot. *)
    let blk = t.blocks.(b) in
    let p = if pos > 0 then blk.nodes.(pos - 1) else blk.nodes.(0).prev in
    let s = p.next in
    fresh.prev <- p;
    fresh.next <- s;
    p.next <- fresh;
    s.prev <- fresh;
    insert_at t b pos fresh
  end;
  t.size <- t.size + 1;
  fresh

let remove_node n t =
  let b = if t.size = 0 then -1 else find_block t n.prefix n.key in
  let blk = if b < 0 then invalid_arg "Ring.remove_node: not a member" else t.blocks.(b) in
  let i = find_slot blk n.prefix n.key in
  if blk.nodes.(i) != n then invalid_arg "Ring.remove_node: not a member";
  let last = blk.len - 1 in
  for j = i to last - 1 do
    blk.nodes.(j) <- blk.nodes.(j + 1);
    blk.prefixes.(j) <- blk.prefixes.(j + 1)
  done;
  blk.len <- last;
  if last = 0 then drop_block t b
  else if i = 0 then begin
    t.starts.(b) <- blk.prefixes.(0);
    seal blk
  end
  else blk.nodes.(last) <- blk.nodes.(0);
  t.size <- t.size - 1;
  n.prev.next <- n.next;
  n.next.prev <- n.prev;
  (* A removed node points only at itself, so holding one keeps
     nothing of the ring alive. *)
  n.next <- n;
  n.prev <- n

let remove id t = Option.iter (fun n -> remove_node n t) (find_node id t)

let of_ids ids =
  let t = create () in
  Array.iter (fun id -> if not (mem id t) then ignore (add id () t : unit node)) ids;
  t

(* {2 Traversal} *)

let min_binding_opt t = if t.size = 0 then None else Some (binding (min_node t))

let iter_nodes f t =
  let rec go n k =
    if k > 0 then begin
      let nx = n.next in
      f n;
      go nx (k - 1)
    end
  in
  if t.size > 0 then go (min_node t) t.size

let iter f t = iter_nodes (fun n -> f n.key n.value) t

let fold f t acc =
  let acc = ref acc in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let bindings t =
  (* Walk backwards from the largest member so the list comes out
     ascending without a reversal. *)
  let rec go n k acc = if k = 0 then acc else go n.prev (k - 1) (binding n :: acc) in
  if t.size = 0 then [] else go (min_node t).prev t.size []

let nth t i =
  if i < 0 || i >= t.size then invalid_arg "Ring.nth: index out of bounds";
  let rec go n i = if i = 0 then binding n else go n.next (i - 1) in
  go (min_node t) i

(* {2 Invariants} *)

let check t =
  let fail fmt = Printf.ksprintf invalid_arg ("Ring: " ^^ fmt) in
  if t.count = 0 then begin
    if t.size <> 0 then fail "size %d but no blocks" t.size
  end
  else begin
    (* Walk the blocks in order; [expect] is the node the links say
       comes next. *)
    let first = min_node t in
    let expect = ref first and seen = ref 0 in
    for b = 0 to t.count - 1 do
      let blk = t.blocks.(b) in
      if blk.len < 1 || blk.len > capacity then fail "block %d holds %d members" b blk.len;
      if t.starts.(b) <> blk.prefixes.(0) then fail "block %d starts at a stale prefix" b;
      for i = 0 to blk.len - 1 do
        let n = blk.nodes.(i) in
        let hex = Id.to_hex n.key in
        if n != !expect then fail "links disagree with the blocks at %s" hex;
        if n.prefix <> prefix_of n.key then fail "stale prefix at %s" hex;
        if blk.prefixes.(i) <> n.prefix then fail "block prefix disagrees with its node at %s" hex;
        if n.next.prev != n then fail "prev of next is not self at %s" hex;
        if !seen > 0 && Id.compare n.prev.key n.key >= 0 then fail "ids out of order at %s" hex;
        incr seen;
        expect := n.next
      done
    done;
    if !seen <> t.size then fail "size %d but %d nodes in the blocks" t.size !seen;
    if !expect != first then fail "links do not close the circle"
  end

(** A Chord DHT with key ownership and ChordReduce-style key transfer.

    Every virtual node (vnode) owns the keys in the arc between its
    predecessor and itself.  Following the paper's "active, aggressive
    backup" assumption, joins and leaves move keys synchronously and
    losslessly:

    - a vnode joining at [x] takes the keys in [(pred(x), x]] from its
      successor;
    - a vnode leaving hands its remaining keys to its successor.

    The payload type ['a] carries simulator state (e.g. which physical
    node owns the vnode).  The structure is mutable: one {!Ring.t}
    (an AVL tree whose nodes are also linked in id order) plus a hash
    index from ids to ring nodes.  Costs, for [n] vnodes:

    - {!join}: one tree descent, which also yields the newcomer's
      neighbours, plus the key split;
    - {!leave}, {!crash}: an O(1) index lookup and unlink, then one
      descent to detach from the tree, plus any key merge;
    - {!find}, {!workload}, {!consume}: O(1) through the index;
    - {!successor}, {!predecessor}, {!arc_of}: O(1) for a member id (its
      index entry links to both neighbours), one O(log n) descent for
      any other id; {!k_successors}, {!k_predecessors} add O(k);
    - {!owner_of}, {!insert_key}, {!restore}: one descent;
    - {!iter}, {!fold}, {!vnode_ids}: O(n), following the links.

    Message costs are charged to the embedded {!Messages.t}. *)

type 'a vnode = private {
  id : Id.t;
  mutable keys : Id_set.t;  (** keys (tasks) currently owned *)
  payload : 'a;
}

type 'a t

val create : unit -> 'a t

val messages : 'a t -> Messages.t

val size : 'a t -> int
(** Number of vnodes. *)

val total_keys : 'a t -> int
(** Keys currently stored across all vnodes; O(1). *)

val find : 'a t -> Id.t -> 'a vnode option

val join : 'a t -> id:Id.t -> payload:'a -> ('a vnode, [ `Occupied ]) result
(** Insert a vnode.  If the ring is non-empty the newcomer immediately
    acquires its share of its successor's keys. *)

val leave : 'a t -> Id.t -> (unit, [ `Not_member | `Last_node ]) result
(** Remove a vnode, handing its keys to its successor.  Refuses to remove
    the last vnode ([`Last_node]), even an empty one: under the
    assumed-reliable model someone must stay to receive arriving tasks,
    so only a {!crash} can empty the ring. *)

val crash : 'a t -> Id.t -> (Id_set.t, [ `Not_member ]) result
(** Ungraceful removal: the vnode vanishes with {e no} key handover and
    its keys leave the store ([total_keys] drops by their count).  The
    keys are returned so the caller can either {!restore} them from
    surviving replicas or account them lost.  A crash never asks
    permission, so — unlike {!leave} — the last vnode can crash and
    empty the ring.  Charges one leave (the departure is still observed
    by the ring). *)

val restore : 'a t -> near:Id.t -> Id_set.t -> int
(** [restore t ~near keys] re-inserts a crashed vnode's keys at their
    current owner: the first surviving vnode clockwise of [near] (the
    crashed vnode's id), which owns the whole vacated arc.  Returns the
    number of keys moved and charges each as a [key_transfers] fetch
    from the replica holder.  No-op on an empty key set.
    @raise Invalid_argument if keys are given and the ring is empty. *)

val insert_key : 'a t -> Id.t -> (unit, [ `Empty_ring | `Duplicate ]) result
(** Store a key on its owner (the first vnode clockwise of the key). *)

val insert_keys : 'a t -> Id.t array -> (int, [ `Empty_ring ]) result
(** Bulk [insert_key]: stores every key of the batch on its owner and
    returns the number actually inserted.  Duplicate keys — within the
    batch or already stored — are dropped, as repeated [insert_key]
    calls would drop them.  One sort plus an [of_sorted_array] slice per
    vnode arc: O(b log b + n log b) for a batch of [b] keys over [n]
    vnodes, rather than [b] owner lookups and AVL inserts. *)

val owner_of : 'a t -> Id.t -> 'a vnode option
(** The vnode responsible for a key. *)

val consume : pick:(int -> int) -> 'a t -> Id.t -> int -> int
(** [consume ~pick t id n] completes up to [n] of vnode [id]'s tasks and
    returns the number actually completed; [0] if [id] is not a member.
    [pick c] chooses the index (in key order) of the next task to
    complete among the [c] remaining.  The argument is required because
    the choice is load-bearing: Sybil arc placement reasons about how
    keys are spread within arcs, so simulations must pass a uniform pick
    (a silent always-leftmost default would skew the remaining-key
    distribution).  The whole budget is removed in one tree pass
    ({!Id_set.take_random_n}), drawing [pick c], [pick (c-1)], ... so
    the random stream matches the per-key loop it replaced.
    @raise Invalid_argument if [pick] returns an index out of range. *)

val consume_vnode : pick:(int -> int) -> 'a t -> 'a vnode -> int -> int
(** {!consume} on a vnode record the caller already holds, skipping the
    id lookup.  The record must be a current ring member (the engine
    keeps each machine's records in sync with its ring presence); a
    departed record has been emptied, so consuming it is a harmless
    no-op rather than corruption. *)

val consume_vnode_keys : pick:(int -> int) -> 'a t -> 'a vnode -> int -> Id.t list
(** {!consume_vnode}, but returns the completed keys themselves (in
    extraction order) instead of just their count — the open-system
    engine needs the identities to settle each task's sojourn ledger
    entry.  Same draws, same removals; [consume_vnode] is this with
    [List.length]. *)

val transfer_keys :
  pick:(int -> int) -> 'a t -> src:'a vnode -> dst:'a vnode -> int -> int
(** [transfer_keys ~pick t ~src ~dst n] moves up to [n] randomly-picked
    tasks from [src] to [dst] {e without} changing key ownership — the
    diffusive balancing primitive.  Draws like {!consume_vnode}: one
    [pick c] per taken key, bounds c, c-1, ...  Returns the number of
    tasks actually moved and charges each to [work_transfers];
    [total_keys] is unchanged (conservation).  No draws and no charge
    when [n <= 0], [src] is empty, or [src == dst].  A picked key that
    [dst] already holds stays with [src] (never silently collapsed).
    After the first transfer, keys may legitimately live outside their
    holder's arc; {!check_invariants} relaxes accordingly.
    @raise Invalid_argument if [pick] returns an index out of range. *)

val workload : 'a t -> Id.t -> int
(** Tasks currently owned by a vnode; [0] if not a member. O(1). *)

val arc_of : 'a t -> Id.t -> Interval.t option
val successor : 'a t -> Id.t -> 'a vnode option
val predecessor : 'a t -> Id.t -> 'a vnode option
val k_successors : 'a t -> Id.t -> int -> 'a vnode list
(** Up to [k] vnodes clockwise of [id], nearest first, never [id]
    itself and never one twice: at most [size - 1], whether or not [id]
    is a member. *)

val k_predecessors : 'a t -> Id.t -> int -> 'a vnode list
(** {!k_successors}, counterclockwise. *)

val iter : ('a vnode -> unit) -> 'a t -> unit
val fold : ('a vnode -> 'b -> 'b) -> 'a t -> 'b -> 'b
val vnode_ids : 'a t -> Id.t list
val ring : 'a t -> 'a vnode Ring.t
(** The live ring itself, not a snapshot: later joins, leaves and
    crashes change it in place.  For building finger tables and
    benchmarks; mutating it directly would desynchronise the index. *)

val check_invariants : 'a t -> unit
(** Asserts: the ring's own structure ({!Ring.check}: links match the
    in-order traversal, every AVL height and balance is exact); the
    index and the ring hold the same nodes; key counts consistent; and
    — while no work transfer has happened ([work_transfers = 0]) —
    every key owned by the correct vnode.  O(n·keys); for tests and the
    [DHTLB_CHECK=1] battery. *)

(** Symmetry-block detection (§4.1).

    Following Janus' notion of equivalent switches, two switches are
    equivalent when they have the same role and generation and connect to
    exactly the same neighbor switches with the same circuit capacities —
    then any plan is indifferent to their mutual order, so they can be
    operated together.  Equivalent switches form a {e symmetry block}.

    As the paper observes for Meta's DCNs, real symmetry blocks are small
    (at most two switches in their three production migration types);
    Klotski therefore merges symmetry blocks into operation blocks using
    locality — that policy lives in [Migration.Blocks], on top of the raw
    symmetry computed here. *)

type block = {
  members : int list;  (** Switch ids, ascending; never empty. *)
  role : Switch.role;  (** Common role of the members. *)
  generation : int;  (** Common hardware generation. *)
}

val blocks : ?pinned:int list -> Universe.t -> scope:int list -> block list
(** [blocks u ~scope] partitions the switches of [scope] into symmetry
    blocks.  Connectivity is judged on the whole universe (active and
    future circuits alike), because switches to be operated are compared by
    where they are or will be wired — which is why this takes the static
    {!Universe.t} and not an activity overlay.  Blocks come out sorted by
    their smallest member.

    [?pinned] lists switches that take part in a wiring change (the
    endpoints, old and new, of OCS rewire groups): each becomes a
    singleton block, because states that differ in where a circuit lands
    must never be merged as symmetric even when as-built signatures
    coincide. *)

val max_block_size : block list -> int
(** Size of the largest block; 0 for an empty list. *)

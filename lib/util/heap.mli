(** Imperative binary min-heap with a user-supplied total order.

    The heap is the engine behind the A* planner's priority queue
    (Algorithm 2 of the paper).  Elements with the smallest key according to
    [compare] are popped first.  All operations are amortized O(log n) except
    [length] and [is_empty], which are O(1). *)

type 'a t
(** A mutable min-heap of elements of type ['a]. *)

val create : compare:('a -> 'a -> int) -> 'a t
(** [create ~compare] is a fresh empty heap ordered by [compare].
    [compare a b < 0] means [a] pops before [b]. *)

val length : 'a t -> int
(** [length h] is the number of elements currently stored in [h]. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val push : 'a t -> 'a -> unit
(** [push h x] inserts [x] into [h]. *)

val pop : 'a t -> 'a option
(** [pop h] removes and returns the minimum element of [h], or [None] if
    [h] is empty. *)

val pop_exn : 'a t -> 'a
(** [pop_exn h] is like {!pop} but raises [Invalid_argument] on an empty
    heap. *)

val clear : 'a t -> unit
(** [clear h] removes every element from [h]. *)

val of_list : compare:('a -> 'a -> int) -> 'a list -> 'a t
(** [of_list ~compare xs] is a heap containing exactly the elements of
    [xs], built in O(n). *)

val to_sorted_list : 'a t -> 'a list
(** [to_sorted_list h] drains [h] and returns its elements in ascending
    order.  [h] is empty afterwards. *)

val fold_unordered : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** [fold_unordered f init h] folds [f] over the elements of [h] in an
    unspecified order, without modifying [h]. *)

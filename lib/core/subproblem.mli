(** Planner subproblems: the attribute-range vectors of Section 3.2.

    A subproblem [Subproblem(phi, R_1, ..., R_n)] records, for every
    attribute, the range of values consistent with the conditioning
    predicates applied so far. [R_i] strictly inside the full domain
    means attribute [i] has been acquired on this path. *)

type t = Acq_plan.Range.t array

val initial : Acq_data.Schema.t -> t
(** Full domains everywhere — nothing observed yet. *)

val acquired : t -> domains:int array -> int -> bool
(** Has attribute [i]'s range been narrowed? *)

val acquisition_cost : t -> domains:int array -> costs:float array -> int -> float
(** The paper's [C'_i]: the attribute's cost if unobserved, else 0. *)

val acquisition_cost_model :
  t -> domains:int array -> model:Acq_plan.Cost_model.t -> int -> float
(** As {!acquisition_cost} with a history-dependent cost model; the
    acquired set is exactly the narrowed-range attributes, so
    subproblem-keyed memoization stays valid. *)

val with_range : t -> int -> Acq_plan.Range.t -> t
(** Functional update of one attribute's range. *)

val all_acquired : t -> domains:int array -> int array -> bool
(** [all_acquired t ~domains attrs]: has every attribute of [attrs]
    been acquired? With the query's attributes ({!Acq_plan.Query.attrs},
    computed once per search) this is the base case of the exhaustive
    recursion: the residual predicates resolve for free. *)

val key : t -> string
(** The memoization key: each range's [lo] then [hi] as a 32-bit
    little-endian integer, [8 * Array.length t] bytes in all. It is
    injective over range vectors of one length whose endpoints lie in
    [[0, 2^31)] (every attribute domain does: a domain is an array
    length); endpoints outside that interval may collide. *)

(** Conjunctive multi-predicate queries — the paper's query (1):
    [SELECT ... WHERE phi_1 AND ... AND phi_p]. *)

type t

val create : Acq_data.Schema.t -> Predicate.t list -> t
(** @raise Invalid_argument on an empty predicate list or a predicate
    whose attribute index or bounds fall outside the schema. *)

val schema : t -> Acq_data.Schema.t
val predicates : t -> Predicate.t array
val n_predicates : t -> int
val predicate : t -> int -> Predicate.t

val attrs : t -> int list
(** Distinct attribute indices referenced by the query, ascending —
    the paper's query attributes [X_1 .. X_m]. *)

val eval : t -> int array -> bool
(** Ground truth of the WHERE clause on a complete tuple. *)

val eval_at : t -> int array -> base:int -> bool
(** [eval_at q cells ~base]: {!eval} on the tuple whose attribute [a]
    is [cells.(base + a)] — a row of a row-major cell buffer
    ({!Acq_data.Dataset.cells}), read in place. *)

val truth_under : t -> Range.t array -> Predicate.truth
(** Truth of the conjunction given per-attribute ranges: [False] as
    soon as one predicate is [False]; [True] if all are [True];
    [Unknown] otherwise. *)

val unknown_predicates : t -> Range.t array -> int list
(** Indices of predicates still [Unknown] under the ranges, in query
    order. *)

val selectivity : t -> Acq_data.Dataset.t -> int -> float
(** [selectivity q data j]: marginal fraction of tuples satisfying
    predicate [j] — the statistic the Naive optimizer orders by. *)

val describe : t -> string

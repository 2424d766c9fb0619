(** Canonical conditioning state: one allowed-value boolean mask per
    attribute.

    Every mask-based backend ({!Backend.empirical},
    {!Backend.independence}, {!Sampled}) reduces its conditioning to
    this shape, so any two restriction orders that reach the same value
    sets share a {!signature} — the prefix of the memo combinator's
    cache keys, and the replay record the sampled backend narrows again
    after a refinement redraws its sample. *)

type t = bool array array

val full : int array -> t
(** [full domains] allows every value of every attribute. *)

val narrow : t -> int -> (int -> bool) -> t
(** [narrow masks attr keep] intersects [attr]'s mask with [keep]
    (persistent: the input masks are not mutated). *)

val narrow_range : t -> int -> Acq_plan.Range.t -> t
val narrow_pred : t -> Acq_plan.Predicate.t -> bool -> t

val signature : t -> string
(** Canonical rendering: attributes whose mask is still all-true are
    omitted, so the unconditioned signature is [""]. *)

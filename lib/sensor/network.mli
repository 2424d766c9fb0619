(** The collection network: a basestation-rooted routing tree of
    motes. Dissemination floods the plan to every mote (charged per
    hop); results flow back up (charged on the producing mote). *)

type t

val create : ?radio:Radio.t -> n_motes:int -> unit -> t
(** Motes are placed on a balanced routing tree: mote [i] sits at
    [1 + log2 (i + 1)] hops (mote 0 is one hop from the root). *)

val n_motes : t -> int
val mote : t -> int -> Mote.t
val radio : t -> Radio.t

val disseminate : t -> Acq_plan.Plan.t -> int
(** Install the plan on every mote; returns the encoded plan size in
    bytes (ζ(P)). Dissemination energy lands on each mote's meter. *)

val total_energy : t -> Energy.t
(** Sum of all mote meters. *)

val reset_energy : t -> unit

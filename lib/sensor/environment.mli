(** The physical world a mote samples: a replayed trace.

    Epoch [e] of mote [m] exposes the attribute values of one dataset
    row. When the schema carries a [nodeid] attribute (lab-style
    traces where each row is one mote's reading), rows are routed to
    the mote named in the row; otherwise every row is a network-wide
    tuple handled by mote 0 (garden-style wide schemas). *)

type t

val replay : Acq_data.Dataset.t -> t

val schema : t -> Acq_data.Schema.t

val n_epochs : t -> int
(** Number of trace rows. *)

val mote_of_epoch : t -> int -> int
(** Which mote observes the row of this epoch. *)

type cursor
(** A position in the trace — one per run, moved epoch by epoch — that
    reads the trace's cells in place. *)

val cursor : t -> cursor
(** At epoch 0. *)

val seek : cursor -> int -> unit
(** Move to an epoch. *)

val read : cursor -> int -> int
(** Ground-truth reading of an attribute at the cursor's epoch (the
    executor pays acquisition cost to call this through the mote's
    lookup closure). *)

val satisfies : cursor -> Acq_plan.Query.t -> bool
(** Ground truth of the WHERE clause at the cursor's epoch, which the
    basestation audits each verdict against. *)

val blit_row : cursor -> int array -> unit
(** Copy the full row at the cursor into a buffer of the schema's
    arity. *)

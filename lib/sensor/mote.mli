(** A simulated mote: stores one installed conditional plan, executes
    it against its environment each epoch, and meters the energy of
    every sensor acquisition and radio byte. Plan execution is the
    cheap part — a binary-tree walk — exactly the architectural split
    of Section 2.5 (plans are *built* on the basestation). *)

type t

val create : id:int -> hops:int -> radio:Radio.t -> unit -> t
(** A mote lowers each installed plan to a flat automaton
    ({!Acq_exec.Runner}) on the first epoch after installation (when
    the query and costs are in hand) and reuses it until the next
    {!install_plan} invalidates it — so plan switches recompile, epochs
    do not. *)

val id : t -> int

val hops : t -> int
(** Routing-tree distance from the basestation. *)

val energy : t -> Energy.t

val install_plan : t -> Acq_plan.Plan.t -> bytes:int -> unit
(** Receive and store a plan; charges reception energy for the
    encoded bytes over the mote's hop distance. *)

val plan : t -> Acq_plan.Plan.t option

type epoch_result = {
  verdict : bool;
  acquisition_cost : float;
  acquired : int list;
}

val run_epoch :
  ?obs:Acq_obs.Telemetry.t ->
  ?probe:Acq_exec.Probe.t ->
  t ->
  Acq_plan.Query.t ->
  costs:float array ->
  lookup:(int -> int) ->
  epoch_result
(** Execute the installed plan on this epoch's readings, metering
    acquisition energy; when the tuple matches, also charge the
    result transmission toward the basestation. [obs] is handed to
    {!Acq_exec.Runner.run} for per-attribute acquisition counters;
    [probe] is the basestation's calibration probe (audit pipeline) —
    it observes node outcomes without changing them.
    @raise Failure if no plan is installed. *)

(** Admission-control and backpressure knobs for acqpd.

    Admission: a tenant may hold at most [max_sessions_per_tenant]
    live subscriptions, and its PLAN/RUN/SUBSCRIBE planning work is
    charged (in planner search nodes) against [plan_quota_per_tenant];
    exhausted quota rejects with [ERR 429]. Drift replans across {e
    all} tenants share one supervisor ledger of [replan_budget] nodes.

    Backpressure: each connection owns a bounded write queue. The
    server runs a poll's tick batch only if some connection that owns
    a live subscription has an empty write queue, so a lone subscriber
    that stops reading pauses the stream instead of losing events.
    While another subscriber keeps up, crossing [write_soft_limit]
    bytes sheds that connection's subscription events (one [OVERLOAD]
    frame announces the gap — the slow-consumer policy is
    drop-with-notice, not unbounded buffering); crossing
    [write_hard_limit] disconnects the consumer outright. *)

type t = {
  max_connections : int;  (** select-safe cap, [<= 1000] *)
  max_sessions_per_tenant : int;
  plan_quota_per_tenant : int;  (** planner search nodes *)
  replan_budget : int;  (** shared supervisor ledger, nodes *)
  max_line_bytes : int;  (** request lines above this get [ERR 413] *)
  write_soft_limit : int;  (** bytes queued before event shedding *)
  write_hard_limit : int;  (** bytes queued before disconnect *)
}

val default : t
val validate : t -> (t, string) result

(** Plans always execute on the compiled automaton ({!Runner}); the
    tree {!Acq_plan.Executor} survives only as the reference the
    differential tests compare against. This single-constructor type
    remains because the end-to-end benchmark under [bench/e2e] still
    passes [Compiled] to [Acq_serve.Oneshot.run_to_string ?exec] and
    [Acq_adapt.Session.create ?exec_mode], which ignore it; it goes
    away together with those two labels. *)

type t = Compiled

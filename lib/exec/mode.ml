type t = Compiled

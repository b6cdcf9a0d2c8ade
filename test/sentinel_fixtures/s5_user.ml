(* S5 fixture: a unit without an interface is no S5 subject, so its
   unreferenced [unused] is not reported; its call keeps
   [S5_export.used] alive. *)

let unused () = S5_export.used 1

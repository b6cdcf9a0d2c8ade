(* Worker entry point [check]: one racy write (S1), one Mutex-guarded
   write (clean), one write to audited state (clean), one suppressed
   write (clean, and the directive counts as used). *)

let guarded_bump () =
  Mutex.lock Fx_state.lock;
  Fx_state.count := !Fx_state.count + 1;
  Mutex.unlock Fx_state.lock

let audited_write v = Fx_state.audited := v

let suppressed_write v =
  (* klotski-lint: allow S1 "fixture: exercises the suppression path" *)
  Fx_state.leaky := v

let check v =
  Fx_state.total := !Fx_state.total + v;
  Fx_state.bare := v;
  guarded_bump ();
  audited_write v;
  suppressed_write v;
  v > 0

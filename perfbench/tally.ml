(* Operations attempted and failed in a run.  An operation fails when
   the program reports an error or when a correctness check on its
   output does not hold; each is logged to stderr. *)

type t = { mutable attempted : int; mutable failed : int }

let create () = { attempted = 0; failed = 0 }

let op t ~ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "[perfbench] FAILED: %s\n%!" what
  end

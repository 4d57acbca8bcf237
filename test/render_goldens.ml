(** Prints one in-test golden (see {!Golden}) to stdout.
    Usage: render_goldens.exe ir|report|profile *)

let () =
  match Sys.argv with
  | [| _; "ir" |] -> print_string (Golden.ir ())
  | [| _; "report" |] -> print_string (Golden.report ())
  | [| _; "profile" |] -> print_string (Golden.profile ())
  | _ ->
    prerr_endline "usage: render_goldens.exe ir|report|profile";
    exit 2

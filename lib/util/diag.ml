(** Structured diagnostics (see the interface for the contract). *)

type stage =
  | Lex
  | Parse
  | Typecheck
  | Parallelize
  | Lower
  | Verify
  | Driver
  | Simulate
  | Serve
  | Fault
  | Internal

type t = {
  stage : stage;
  code : string;
  message : string;
  line : int option;
  transient : bool;
}

exception Error of t

let make ?line ?(transient = false) stage ~code message =
  { stage; code; message; line; transient }

let error ?line ?transient stage ~code fmt =
  Format.kasprintf
    (fun message -> raise (Error (make ?line ?transient stage ~code message)))
    fmt

let stage_name = function
  | Lex -> "lex"
  | Parse -> "parse"
  | Typecheck -> "typecheck"
  | Parallelize -> "parallelize"
  | Lower -> "lower"
  | Verify -> "verify"
  | Driver -> "driver"
  | Simulate -> "simulate"
  | Serve -> "serve"
  | Fault -> "fault"
  | Internal -> "internal"

let to_string d =
  Printf.sprintf "%s error [%s]%s: %s" (stage_name d.stage) d.code
    (match d.line with Some l -> Printf.sprintf " (line %d)" l | None -> "")
    d.message

let code_internal = "E_INTERNAL"

(* register a readable printer so a diagnostic that does escape (it never
   should) still prints its code and message, not <abstr> *)
let () =
  Printexc.register_printer (function
    | Error d -> Some ("Diag.Error: " ^ to_string d)
    | _ -> None)

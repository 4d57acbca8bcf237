(** Minimal JSON value type, printer and parser (RFC 8259 subset; string
    escapes beyond ASCII [\u] codes are replaced by [?]).  Used for the
    committed benchmark baseline and by tests that re-read exported
    reports. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(** Pretty-printed rendering (2-space indent, trailing newline).
    Numbers print via {!num_to_string}. *)
val to_string : t -> string

(** One-line rendering (no whitespace, no trailing newline) for
    line-delimited protocols: the rendered text never contains a raw
    newline, so one value = one frame. *)
val to_compact_string : t -> string

(** Integral floats render without a fraction; everything else uses
    [%.17g] so a parse round-trips to the identical float. *)
val num_to_string : float -> string

(** JSON string-body escaping (no surrounding quotes). *)
val escape : string -> string

(** Raises {!Parse_error} on malformed input — and {e only}
    [Parse_error]: the parser is hardened against adversarial input
    (deep nesting, overlong strings and number tokens, truncated
    frames), so no raw exception (in particular no [Stack_overflow])
    escapes.  [max_depth] bounds container nesting (default
    {!default_max_depth}); [max_string] bounds each decoded string's
    length in bytes (default {!default_max_string}). *)
val of_string : ?max_depth:int -> ?max_string:int -> string -> t

val of_string_opt : ?max_depth:int -> ?max_string:int -> string -> t option

(** Default nesting bound (512 levels). *)
val default_max_depth : int

(** Default per-string byte bound (8 MiB). *)
val default_max_string : int

(** Object field lookup; [None] on non-objects and missing keys. *)
val member : string -> t -> t option

val to_float_opt : t -> float option
val to_string_opt : t -> string option

(** The list payload; [[]] on non-lists. *)
val to_list : t -> t list

(** [write_file ~path contents] writes [contents] to [path] atomically:
    into [path.tmp] in the same directory, then renamed over [path], so
    a reader never sees a truncated artifact.  On failure the temp file
    is removed and the exception re-raised.  Every artifact the
    programs write (reports, traces, benchmark records, schedules) goes
    through here. *)
val write_file : path:string -> string -> unit

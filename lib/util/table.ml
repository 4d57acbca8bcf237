(** Plain-text table rendering for the benchmark harness.

    The harness prints every reproduced table/figure as an aligned ASCII
    table so that the output can be diffed between runs and pasted into
    EXPERIMENTS.md. *)

type align = Left | Right

type t = {
  title : string;
  header : string list;
  aligns : align list;
  mutable rows : string list list; (* reverse order *)
}

let create ~title ~header ?aligns () =
  let aligns =
    match aligns with
    | Some a ->
      if List.length a <> List.length header then
        invalid_arg "Table.create: aligns length mismatch";
      a
    | None -> List.map (fun _ -> Left) header
  in
  { title; header; aligns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.header then
    invalid_arg "Table.add_row: row length mismatch";
  t.rows <- row :: t.rows

let rows t = List.rev t.rows

let fmt_float ?(digits = 2) x =
  if Float.is_nan x then "-" else Printf.sprintf "%.*f" digits x

let render t =
  let all = t.header :: rows t in
  let ncols = List.length t.header in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let pad align width s =
    let n = width - String.length s in
    match align with
    | Left -> s ^ String.make n ' '
    | Right -> String.make n ' ' ^ s
  in
  let render_row row =
    let cells =
      List.mapi
        (fun i cell -> pad (List.nth t.aligns i) widths.(i) cell)
        row
    in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let sep =
    let dashes = Array.to_list (Array.map (fun w -> String.make w '-') widths) in
    "|-" ^ String.concat "-|-" dashes ^ "-|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (render_row t.header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf

let print t = print_string (render t); print_newline ()

type column = { label : string; values : float array }

type t = { title : string; x_label : string; x : float array; columns : column list }

let create ~title ~x_label ~x columns =
  let n = Array.length x in
  List.iter
    (fun c ->
      if Array.length c.values <> n then
        invalid_arg
          (Printf.sprintf "Series.create: column %S has %d values, expected %d" c.label
             (Array.length c.values) n))
    columns;
  { title; x_label; x; columns }

let column ~label values = { label; values }

(* Build a table by evaluating one function per column over a shared
   x-grid — the common shape of every figure in the paper. *)
let tabulate ~title ~x_label ~x columns =
  let x = Array.of_list x in
  let columns =
    List.map (fun (label, f) -> { label; values = Array.map f x }) columns
  in
  create ~title ~x_label ~x columns

let pp ppf t =
  let width = 12 in
  Fmt.pf ppf "# %s@." t.title;
  Fmt.pf ppf "%-*s" width t.x_label;
  List.iter (fun c -> Fmt.pf ppf " %*s" width c.label) t.columns;
  Fmt.pf ppf "@.";
  Array.iteri
    (fun i x ->
      Fmt.pf ppf "%-*.6g" width x;
      List.iter (fun c -> Fmt.pf ppf " %*.6g" width c.values.(i)) t.columns;
      Fmt.pf ppf "@.")
    t.x

let to_csv t =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer t.x_label;
  List.iter
    (fun c ->
      Buffer.add_char buffer ',';
      Buffer.add_string buffer c.label)
    t.columns;
  Buffer.add_char buffer '\n';
  Array.iteri
    (fun i x ->
      Buffer.add_string buffer (Printf.sprintf "%.9g" x);
      List.iter
        (fun c -> Buffer.add_string buffer (Printf.sprintf ",%.9g" c.values.(i)))
        t.columns;
      Buffer.add_char buffer '\n')
    t.x;
  Buffer.contents buffer

(* Terminal line plots for Series tables, so `dhtlab figure f7b --plot`
   shows the paper's figures without leaving the shell. Each column gets
   a marker; series are piecewise-linearly interpolated across the
   canvas and later series overwrite earlier ones where they collide. *)

let markers = [| '*'; '+'; 'o'; 'x'; '#'; '@'; '%'; '&'; '='; '~' |]

type extent = { x_min : float; x_max : float; y_min : float; y_max : float }

let finite_values (series : Series.t) =
  List.concat_map
    (fun (c : Series.column) ->
      Array.to_list c.values |> List.filter Float.is_finite)
    series.columns

let extent ?y_floor ?y_ceiling (series : Series.t) =
  let xs = Array.to_list series.x in
  let ys = finite_values series in
  if xs = [] || ys = [] then invalid_arg "Ascii_plot: empty series";
  let x_min = List.fold_left Float.min infinity xs in
  let x_max = List.fold_left Float.max neg_infinity xs in
  let y_min = Option.value y_floor ~default:(List.fold_left Float.min infinity ys) in
  let y_max = Option.value y_ceiling ~default:(List.fold_left Float.max neg_infinity ys) in
  let y_min, y_max =
    if y_max -. y_min < 1e-12 then (y_min -. 0.5, y_max +. 0.5) else (y_min, y_max)
  in
  let x_min, x_max = if x_max -. x_min < 1e-12 then (x_min -. 0.5, x_max +. 0.5) else (x_min, x_max) in
  { x_min; x_max; y_min; y_max }

(* Linear interpolation of a column at x, between its bracketing grid
   points; None outside the data range or across non-finite points. *)
let interpolate (xs : float array) (ys : float array) x =
  let n = Array.length xs in
  if n = 0 || x < xs.(0) || x > xs.(n - 1) then None
  else begin
    let rec bracket i =
      if i >= n - 1 then Some (n - 1, n - 1)
      else if x <= xs.(i + 1) then Some (i, i + 1)
      else bracket (i + 1)
    in
    match bracket 0 with
    | None -> None
    | Some (i, j) ->
        if i = j || xs.(j) = xs.(i) then
          if Float.is_finite ys.(i) then Some ys.(i) else None
        else begin
          let t = (x -. xs.(i)) /. (xs.(j) -. xs.(i)) in
          let y = ys.(i) +. (t *. (ys.(j) -. ys.(i))) in
          if Float.is_finite y then Some y else None
        end
  end

let render ?(width = 64) ?(height = 20) ?y_floor ?y_ceiling (series : Series.t) =
  if width < 16 || height < 4 then invalid_arg "Ascii_plot.render: canvas too small";
  let ext = extent ?y_floor ?y_ceiling series in
  let canvas = Array.make_matrix height width ' ' in
  (* Sort points by x so interpolation sees an ordered grid. *)
  let order = Array.init (Array.length series.x) Fun.id in
  Array.sort (fun a b -> Float.compare series.x.(a) series.x.(b)) order;
  let xs = Array.map (fun i -> series.x.(i)) order in
  List.iteri
    (fun index (column : Series.column) ->
      let marker = markers.(index mod Array.length markers) in
      let ys = Array.map (fun i -> column.values.(i)) order in
      for col = 0 to width - 1 do
        let x =
          ext.x_min +. (float_of_int col *. (ext.x_max -. ext.x_min) /. float_of_int (width - 1))
        in
        match interpolate xs ys x with
        | None -> ()
        | Some y ->
            let clamped = Float.max ext.y_min (Float.min ext.y_max y) in
            let fraction = (clamped -. ext.y_min) /. (ext.y_max -. ext.y_min) in
            let row = height - 1 - int_of_float (fraction *. float_of_int (height - 1)) in
            canvas.(row).(col) <- marker
      done)
    series.columns;
  let buffer = Buffer.create ((width + 12) * (height + 4)) in
  Buffer.add_string buffer (Printf.sprintf "%s\n" series.title);
  Array.iteri
    (fun row line ->
      let label =
        if row = 0 then Printf.sprintf "%8.3g" ext.y_max
        else if row = height - 1 then Printf.sprintf "%8.3g" ext.y_min
        else String.make 8 ' '
      in
      Buffer.add_string buffer label;
      Buffer.add_string buffer " |";
      Buffer.add_string buffer (String.init width (Array.get line));
      Buffer.add_char buffer '\n')
    canvas;
  Buffer.add_string buffer (String.make 9 ' ');
  Buffer.add_char buffer '+';
  Buffer.add_string buffer (String.make width '-');
  Buffer.add_char buffer '\n';
  Buffer.add_string buffer
    (Printf.sprintf "%9s%-*.4g%*.4g  (%s)\n" "" (width / 2) ext.x_min (width - (width / 2))
       ext.x_max series.x_label);
  List.iteri
    (fun index (column : Series.column) ->
      Buffer.add_string buffer
        (Printf.sprintf "%9s%c = %s\n" "" markers.(index mod Array.length markers) column.label))
    series.columns;
  Buffer.contents buffer

let render ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> if String.length cell > widths.(i) then widths.(i) <- String.length cell)
        row)
    all;
  let pad i cell = cell ^ String.make (widths.(i) - String.length cell) ' ' in
  let line row = String.concat "  " (List.mapi pad row) in
  let sep =
    String.concat "  "
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  let body = List.map line rows in
  String.concat "\n" ((line header :: sep :: body) @ [ "" ])

let print ~header rows = print_string (render ~header rows)

let print_title title =
  let bar = String.make (String.length title + 4) '=' in
  Printf.printf "\n%s\n= %s =\n%s\n" bar title bar

type t = {
  id : string;
  title : string;
  claim : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

let make ~id ~title ~claim ~header ?(notes = []) rows =
  { id; title; claim; header; rows; notes }

let pp fmt t =
  let widths =
    List.fold_left
      (fun acc row ->
        List.mapi
          (fun i cell ->
            let w = try List.nth acc i with _ -> 0 in
            max w (String.length cell))
          row)
      (List.map String.length t.header)
      t.rows
  in
  let pp_row fmt row =
    List.iteri
      (fun i cell ->
        let w = try List.nth widths i with _ -> String.length cell in
        Format.fprintf fmt "| %-*s " w cell)
      row;
    Format.fprintf fmt "|"
  in
  let sep =
    String.concat "+"
      ("" :: List.map (fun w -> String.make (w + 2) '-') widths @ [ "" ])
  in
  Format.fprintf fmt "@.== %s: %s ==@." t.id t.title;
  Format.fprintf fmt "claim: %s@." t.claim;
  Format.fprintf fmt "%s@." sep;
  Format.fprintf fmt "%a@." pp_row t.header;
  Format.fprintf fmt "%s@." sep;
  List.iter (fun row -> Format.fprintf fmt "%a@." pp_row row) t.rows;
  Format.fprintf fmt "%s@." sep;
  List.iter (fun n -> Format.fprintf fmt "note: %s@." n) t.notes

let cell_int = string_of_int
let cell_float f = Printf.sprintf "%.1f" f
let cell_bool = string_of_bool

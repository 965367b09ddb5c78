(* Small order statistics over float and int samples. *)

let sorted_floats l = List.sort Float.compare l

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list (sorted_floats l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* first quartile, median and third quartile, by linear interpolation *)
let quartiles = function
  | [] -> []
  | l ->
    let a = Array.of_list (sorted_floats l) in
    let n = Array.length a in
    let at q =
      let x = q *. float_of_int (n - 1) in
      let i = int_of_float x in
      if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))
    in
    [ at 0.25; at 0.5; at 0.75 ]

(* nearest-rank percentile of integer samples, [p] in [0, 1] *)
let percentile p = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list (List.sort Int.compare l) in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    float_of_int a.(max 0 (min (n - 1) (rank - 1)))

let ratio num den = if den = 0.0 then 0.0 else num /. den
let ratio_int num den = ratio (float_of_int num) (float_of_int den)

(* Binary min-heap over parallel arrays: event [i] of the heap is
   [(at.(i), seq.(i), kind.(i))]. The order is inlined as float and int
   comparisons on array loads (no comparator closure, no boxed float), and
   both sifts move a hole instead of swapping, writing each displaced event
   once. *)

type t = {
  mutable at : Float.Array.t;
  mutable seq : int array;
  mutable kind : int array;
  mutable len : int;
  mutable next_seq : int;
}

let create () =
  { at = Float.Array.create 0; seq = [||]; kind = [||]; len = 0; next_seq = 0 }

let is_empty t = t.len = 0
let size t = t.len

(* (a_at, a_seq) strictly before (b_at, b_seq); times are never NaN *)
let[@inline] before (a_at : float) (a_seq : int) (b_at : float) (b_seq : int) =
  a_at < b_at || (a_at = b_at && a_seq < b_seq)

let grow t =
  let cap = Array.length t.seq in
  let ncap = max 16 (2 * cap) in
  let at = Float.Array.create ncap in
  Float.Array.blit t.at 0 at 0 t.len;
  let seq = Array.make ncap 0 in
  Array.blit t.seq 0 seq 0 t.len;
  let kind = Array.make ncap 0 in
  Array.blit t.kind 0 kind 0 t.len;
  t.at <- at;
  t.seq <- seq;
  t.kind <- kind

let[@inline] move t ~src ~dst =
  Float.Array.unsafe_set t.at dst (Float.Array.unsafe_get t.at src);
  Array.unsafe_set t.seq dst (Array.unsafe_get t.seq src);
  Array.unsafe_set t.kind dst (Array.unsafe_get t.kind src)

let push t ~at kind =
  if Float.is_nan at then invalid_arg "Event_queue.push: NaN time";
  if t.len = Array.length t.seq then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* the hole starts at the new last slot and rises past later parents *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before at seq (Float.Array.unsafe_get t.at parent) (Array.unsafe_get t.seq parent)
    then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  Float.Array.unsafe_set t.at !i at;
  Array.unsafe_set t.seq !i seq;
  Array.unsafe_set t.kind !i kind

let min_at t =
  if t.len = 0 then raise Not_found;
  Float.Array.unsafe_get t.at 0

let pop t =
  if t.len = 0 then raise Not_found;
  let top = Array.unsafe_get t.kind 0 in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    (* the last event fills the hole left at the root, sinking below
       earlier children *)
    let x_at = Float.Array.unsafe_get t.at n in
    let x_seq = Array.unsafe_get t.seq n in
    let x_kind = Array.unsafe_get t.kind n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && before (Float.Array.unsafe_get t.at r) (Array.unsafe_get t.seq r)
                 (Float.Array.unsafe_get t.at l) (Array.unsafe_get t.seq l)
          then r
          else l
        in
        if before (Float.Array.unsafe_get t.at c) (Array.unsafe_get t.seq c) x_at x_seq
        then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    Float.Array.unsafe_set t.at !i x_at;
    Array.unsafe_set t.seq !i x_seq;
    Array.unsafe_set t.kind !i x_kind
  end;
  top
